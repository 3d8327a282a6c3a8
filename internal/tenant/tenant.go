// Package tenant makes one storage node shareable by many mutually
// untrusting users, the §IV.A cooperative setting where "the nodes of the
// system belong to many users": it wraps a Backing — a store.Keyed that
// can also size and enumerate its keys, i.e. the in-memory transport
// store or the durable segment store — and hands out per-tenant Store
// views that are store.Keyed themselves, with namespaces, byte/block
// quotas enforced atomically at write time, usage accounting rebuilt from
// the backing store on reopen and after the backing drops a key on its
// own (a corrupt record), and a pluggable eviction policy that sheds
// whole cold tenant lattices when the node runs out of room — lattices
// which entanglement repair can later regenerate from the surviving
// strands.
//
// Namespacing is by key prefix: tenant "alice" writing key "k" lands on
// "!tenant/alice/k" in the backing store. The anonymous tenant — every
// client that never performed the transport handshake — owns the raw,
// unprefixed keyspace, so a node upgraded under live pre-handshake
// clients keeps serving their blocks unchanged. Tenant IDs are validated
// (lowercase alphanumerics plus "._-", no separators) so a hostile ID can
// never escape its prefix.
//
// Quotas are admission control, not reservation: a Put or PutBatch whose
// admitted delta would push the tenant past its byte or block budget is
// refused with store.ErrQuotaExceeded before touching the backing store.
// The reservation field is the eviction floor instead — a tenant sitting
// at or below its reservation is never chosen as an eviction victim, so
// one greedy tenant can never push another below its reserved footprint.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"

	"aecodes/internal/store"
)

// Prefix namespaces every non-anonymous tenant's keys in the backing
// store. The leading '!' keeps tenant namespaces out of the way of
// ordinary (anonymous) keys, following the segstore "!segstore/" reserved
// prefix convention.
const Prefix = "!tenant/"

// Anonymous is the tenant ID of clients that never performed the
// transport handshake. Its namespace is the raw keyspace, so old clients
// round-trip against a tenant-aware node unchanged.
const Anonymous = ""

// MaxIDLen bounds a tenant ID. Generous for human-chosen names, small
// against hostile handshakes.
const MaxIDLen = 64

// ValidateID checks a tenant ID: 1..MaxIDLen characters drawn from
// [a-z0-9._-], starting with a letter or digit. The empty string is the
// anonymous tenant and is accepted. The character set deliberately
// excludes '/' and '!' so an ID can neither escape its namespace prefix
// nor collide with reserved keyspaces.
func ValidateID(id string) error {
	if id == Anonymous {
		return nil
	}
	if len(id) > MaxIDLen {
		return fmt.Errorf("tenant: id of %d bytes exceeds limit %d", len(id), MaxIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return fmt.Errorf("tenant: id %q must start with a letter or digit", id)
			}
		default:
			return fmt.Errorf("tenant: id %q contains invalid byte %q", id, c)
		}
	}
	return nil
}

// Quota is one tenant's admission and eviction budget.
type Quota struct {
	// MaxBytes caps the tenant's live block bytes; 0 means unlimited.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// MaxBlocks caps the tenant's live block count; 0 means unlimited.
	MaxBlocks int64 `json:"max_blocks,omitempty"`
	// Reservation is the eviction floor: while the tenant's live bytes
	// are at or below it, the tenant is never an eviction victim.
	Reservation int64 `json:"reservation,omitempty"`
}

// Config tunes a Registry.
type Config struct {
	// Tenants maps known tenant IDs to their quotas.
	Tenants map[string]Quota `json:"tenants,omitempty"`
	// Default is the quota applied to tenants absent from Tenants —
	// including the anonymous tenant, unless it has an explicit entry
	// under the empty ID.
	Default Quota `json:"default,omitempty"`
	// Strict refuses handshakes from tenants absent from Tenants instead
	// of admitting them with the Default quota. The anonymous tenant is
	// always admitted.
	Strict bool `json:"strict,omitempty"`
	// HighWater is the node-wide eviction trigger in live bytes: a write
	// that leaves the node above it sheds cold tenant lattices until the
	// node is back below (or no evictable tenant remains). 0 disables
	// eviction.
	HighWater int64 `json:"high_water,omitempty"`
}

// quotaFor resolves the quota a tenant gets under this config.
func (c Config) quotaFor(id string) (Quota, error) {
	if q, ok := c.Tenants[id]; ok {
		return q, nil
	}
	if c.Strict && id != Anonymous {
		return Quota{}, fmt.Errorf("tenant: unknown tenant %q on a strict node: %w", id, store.ErrQuotaExceeded)
	}
	return c.Default, nil
}

// LoadConfig reads a Config from a JSON file — the format behind the
// aestored -tenants flag:
//
//	{
//	  "default":    {"max_bytes": 104857600},
//	  "high_water": 1073741824,
//	  "strict":     false,
//	  "tenants": {
//	    "alice": {"max_bytes": 1048576, "reservation": 65536},
//	    "bob":   {}
//	  }
//	}
//
// Every tenant ID in the file is validated.
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: reading config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return Config{}, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	for id := range cfg.Tenants {
		if id == Anonymous {
			continue // explicit quota for the anonymous tenant
		}
		if err := ValidateID(id); err != nil {
			return Config{}, fmt.Errorf("tenant: config %s: %w", path, err)
		}
	}
	return cfg, nil
}
