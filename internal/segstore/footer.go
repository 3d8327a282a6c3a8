package segstore

// Seal-time footers: the seal job appends to every sealed segment the
// list of the records it holds, in log order, so Open rebuilds the index
// of a sealed segment from its footer instead of re-reading and
// re-checksumming every record.
//
//	footer  := lead(4) entry* trailer
//	entry   := word0(4) keyLen(2) key     — as in the record's header
//	trailer := bodyLen(8) crc(4) magic(4) (big endian)
//	bodyLen := len(lead) + len(entries)
//	crc     := CRC32-C over lead, entries and bodyLen
//
// A footer lists no offsets: the records of a segment are contiguous
// from offset 0, so each entry's offset is the sum of the record lengths
// before it, and a footer is valid only when those lengths add up to
// exactly where the footer starts. lead fails the record version gate,
// so a scan of a footered segment stops at its footer, and when such a
// segment becomes the last one, Open cuts its footer as a torn tail.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

const (
	// footerLead opens every footer. Bit 30, the record version bit, is
	// clear.
	footerLead uint32 = 0x1EAF5EA1
	// footerMagic closes every footer.
	footerMagic uint32 = 0x5EA1F007

	footerLeadLen    = 4
	footerEntryHead  = 6 // word0 and keyLen
	footerTrailerLen = 16
)

// footers, when false, makes the seal job write no footer and Open scan
// every segment, as a log written before footers existed. A var only so
// tests can turn it off.
var footers = true

// logEntry is one record of the active segment as its footer will list
// it: the key and the record's header word (tombstone flag, version bit,
// payload length).
type logEntry struct {
	key   string
	word0 uint32
}

// footerRecord is one record a footer lists, located in its segment.
type footerRecord struct {
	key       string
	tombstone bool
	loc       recordLoc
}

// validHeader reports whether a record header's fields are within the
// framing limits: the version bit set, a key of 1..MaxKeyLen bytes, at
// most MaxBlockLen bytes of payload, none on a tombstone. Records that
// fail it end a scan; footer entries that fail it void the footer.
func validHeader(word0 uint32, keyLen uint16) bool {
	dataLen := word0 & recLenMask
	tombstone := word0&recTombstone != 0
	return word0&recVersion != 0 && dataLen <= MaxBlockLen &&
		keyLen != 0 && keyLen <= MaxKeyLen && !(tombstone && dataLen != 0)
}

// appendFooter appends to b the footer of a segment holding the records
// ents, in log order.
func appendFooter(b []byte, ents []logEntry) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, footerLead)
	for _, e := range ents {
		b = binary.BigEndian.AppendUint32(b, e.word0)
		b = binary.BigEndian.AppendUint16(b, uint16(len(e.key)))
		b = append(b, e.key...)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(len(b)-start))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
	return binary.BigEndian.AppendUint32(b, footerMagic)
}

// readFooter reads the footer at the end of segment seg, size bytes read
// through r, and returns the records it lists and the offset where the
// records end and the footer starts. ok is false when the segment has
// no footer or one that is short, fails its CRC or lists records that do
// not fill the segment up to the footer exactly: the segment is then
// scanned.
func readFooter(r io.ReaderAt, seg uint64, size int64) (recs []footerRecord, recEnd int64, ok bool) {
	var tr [footerTrailerLen]byte
	if size < footerTrailerLen+footerLeadLen {
		return nil, 0, false
	}
	if _, err := r.ReadAt(tr[:], size-footerTrailerLen); err != nil {
		return nil, 0, false
	}
	bodyLen := binary.BigEndian.Uint64(tr[0:8])
	if binary.BigEndian.Uint32(tr[12:16]) != footerMagic ||
		bodyLen < footerLeadLen || bodyLen > uint64(size-footerTrailerLen) {
		return nil, 0, false
	}
	recEnd = size - footerTrailerLen - int64(bodyLen)
	body := make([]byte, bodyLen)
	if _, err := r.ReadAt(body, recEnd); err != nil {
		return nil, 0, false
	}
	crc := crc32.Update(crc32.Checksum(body, castagnoli), castagnoli, tr[0:8])
	if crc != binary.BigEndian.Uint32(tr[8:12]) || binary.BigEndian.Uint32(body) != footerLead {
		return nil, 0, false
	}
	var off int64
	for p := body[footerLeadLen:]; len(p) > 0; {
		if len(p) < footerEntryHead {
			return nil, 0, false
		}
		word0 := binary.BigEndian.Uint32(p[0:4])
		keyLen := binary.BigEndian.Uint16(p[4:6])
		if !validHeader(word0, keyLen) || len(p) < footerEntryHead+int(keyLen) {
			return nil, 0, false
		}
		loc := recordLoc{seg: seg, off: off, keyLen: keyLen, dataLen: word0 & recLenMask}
		if off += loc.recLen(); off > recEnd {
			return nil, 0, false
		}
		key := string(p[footerEntryHead : footerEntryHead+int(keyLen)])
		recs = append(recs, footerRecord{key: key, tombstone: word0&recTombstone != 0, loc: loc})
		p = p[footerEntryHead+int(keyLen):]
	}
	if off != recEnd {
		return nil, 0, false
	}
	return recs, recEnd, true
}
