// Package reedsolomon implements a systematic Reed–Solomon erasure codec
// RS(k, m) over GF(2⁸) — the paper's baseline comparison code (§V: "RS codes
// conceptualize the idea of an 'ideal code' … can be used as a baseline").
//
// Encoding splits a source into k data shards and computes m parity shards;
// any k of the k+m shards reconstruct the source. The generator is built
// from a Cauchy matrix stacked under the identity, so every k-subset of rows
// is invertible by construction. Decoding inverts the surviving-row
// sub-matrix and multiplies — the classic k-I/O, k·B-bandwidth repair path
// whose cost the paper contrasts with AE's fixed two-block repairs.
package reedsolomon

import (
	"fmt"

	"aecodes/internal/gf256"
	"aecodes/internal/matrix"
)

// Code is an RS(k, m) codec. Codecs are immutable after construction and
// safe for concurrent use.
type Code struct {
	k, m int
	gen  *matrix.Matrix // (k+m)×k generator: identity on top, Cauchy below
}

// New returns an RS(k, m) codec.
// It returns an error when k or m is not positive or k+m exceeds the field
// size (255 usable evaluation points).
func New(k, m int) (*Code, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("reedsolomon: k and m must be positive, got k=%d m=%d", k, m)
	}
	if k+m > gf256.Order {
		return nil, fmt.Errorf("reedsolomon: k+m = %d exceeds field size %d", k+m, gf256.Order)
	}
	gen, err := buildGenerator(k, m)
	if err != nil {
		return nil, err
	}
	return &Code{k: k, m: m, gen: gen}, nil
}

// buildGenerator stacks the k×k identity over an m×k Cauchy matrix. Every
// square sub-matrix of a Cauchy matrix is invertible, and mixing identity
// rows keeps the property for any k-row selection, making the code MDS.
func buildGenerator(k, m int) (*matrix.Matrix, error) {
	gen, err := matrix.New(k+m, k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	cauchy, err := matrix.Cauchy(m, k)
	if err != nil {
		return nil, err
	}
	for r := 0; r < m; r++ {
		for c := 0; c < k; c++ {
			gen.Set(k+r, c, cauchy.At(r, c))
		}
	}
	return gen, nil
}

// StorageOverhead returns the additional-storage fraction m/k (Table IV).
func (c *Code) StorageOverhead() float64 { return float64(c.m) / float64(c.k) }

// SingleFailureCost returns the number of block reads needed to repair one
// missing shard: k (Table IV row "SF").
func (c *Code) SingleFailureCost() int { return c.k }

// String renders the conventional name, e.g. "RS(10,4)".
func (c *Code) String() string { return fmt.Sprintf("RS(%d,%d)", c.k, c.m) }

// Encode computes the m parity shards for k data shards of equal length.
// The returned slice holds only the parities; the code is systematic, so
// data shards are stored as-is.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("reedsolomon: got %d data shards, want %d", len(data), c.k)
	}
	if err := checkShardSizes(data); err != nil {
		return nil, err
	}
	shardLen := len(data[0])
	parities := make([][]byte, c.m)
	for r := 0; r < c.m; r++ {
		acc := make([]byte, shardLen)
		for col := 0; col < c.k; col++ {
			if err := gf256.MulAddSlice(c.gen.At(c.k+r, col), acc, data[col]); err != nil {
				return nil, err
			}
		}
		parities[r] = acc
	}
	return parities, nil
}

// Reconstruct rebuilds the k data shards from any k available shards.
// shards must have length k+m with data shards first; missing shards are
// nil. It returns the k data shards (freshly allocated where they had to be
// rebuilt) or an error when fewer than k shards survive.
func (c *Code) Reconstruct(shards [][]byte) ([][]byte, error) {
	if len(shards) != c.k+c.m {
		return nil, fmt.Errorf("reedsolomon: got %d shards, want %d", len(shards), c.k+c.m)
	}
	avail := make([]int, 0, c.k)
	shardLen := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return nil, fmt.Errorf("reedsolomon: shard %d has %d bytes, want %d", i, len(s), shardLen)
		}
		if len(avail) < c.k {
			avail = append(avail, i)
		}
	}
	if len(avail) < c.k {
		return nil, fmt.Errorf("reedsolomon: only %d shards available, need %d", len(avail), c.k)
	}

	// Fast path: all data shards survive.
	allData := true
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			allData = false
			break
		}
	}
	if allData {
		return shards[:c.k], nil
	}

	sub, err := c.gen.SubMatrix(avail)
	if err != nil {
		return nil, err
	}
	inv, err := sub.Invert()
	if err != nil {
		return nil, fmt.Errorf("reedsolomon: surviving-shard matrix: %w", err)
	}
	vec := make([][]byte, c.k)
	for i, idx := range avail {
		vec[i] = shards[idx]
	}
	out := make([][]byte, c.k)
	for r := 0; r < c.k; r++ {
		if shards[r] != nil {
			out[r] = shards[r]
			continue
		}
		acc := make([]byte, shardLen)
		for col := 0; col < c.k; col++ {
			if err := gf256.MulAddSlice(inv.At(r, col), acc, vec[col]); err != nil {
				return nil, err
			}
		}
		out[r] = acc
	}
	return out, nil
}

// ReconstructAll rebuilds every missing shard (data and parity). It returns
// the full k+m shard set.
func (c *Code) ReconstructAll(shards [][]byte) ([][]byte, error) {
	data, err := c.Reconstruct(shards)
	if err != nil {
		return nil, err
	}
	needParity := false
	for i := c.k; i < c.k+c.m; i++ {
		if shards[i] == nil {
			needParity = true
			break
		}
	}
	out := make([][]byte, c.k+c.m)
	copy(out, data)
	if !needParity {
		copy(out[c.k:], shards[c.k:])
		return out, nil
	}
	parities, err := c.Encode(data)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.m; i++ {
		if shards[c.k+i] != nil {
			out[c.k+i] = shards[c.k+i]
		} else {
			out[c.k+i] = parities[i]
		}
	}
	return out, nil
}

// Split slices source into k equal shards, zero-padding the tail. The
// returned shards reference fresh memory.
func (c *Code) Split(source []byte) ([][]byte, error) {
	if len(source) == 0 {
		return nil, fmt.Errorf("reedsolomon: empty source")
	}
	shardLen := (len(source) + c.k - 1) / c.k
	shards := make([][]byte, c.k)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		start := i * shardLen
		if start < len(source) {
			copy(shards[i], source[start:])
		}
	}
	return shards, nil
}

// Join concatenates data shards and trims to size bytes, inverting Split.
func (c *Code) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, fmt.Errorf("reedsolomon: got %d shards, want at least %d", len(shards), c.k)
	}
	var out []byte
	for _, s := range shards[:c.k] {
		out = append(out, s...)
	}
	if size > len(out) {
		return nil, fmt.Errorf("reedsolomon: joined %d bytes, want %d", len(out), size)
	}
	return out[:size], nil
}

func checkShardSizes(shards [][]byte) error {
	if len(shards) == 0 || len(shards[0]) == 0 {
		return fmt.Errorf("reedsolomon: empty shards")
	}
	want := len(shards[0])
	for i, s := range shards {
		if len(s) != want {
			return fmt.Errorf("reedsolomon: shard %d has %d bytes, want %d", i, len(s), want)
		}
	}
	return nil
}
