// Package frontier holds the dedup machinery shared by the checker's
// configuration-space explorer and the scheme enumerator: the Dedup mode
// selector and SeqVisited, the visited set behind both breadth-first
// walks.
//
// Both walks are single-goroutine FIFO breadth-first searches: a node is
// expanded when it is dequeued, and its successors are admitted to the
// visited set in event order. Admission order is therefore the canonical
// breadth-first order (levels, then frontier position, then event order),
// and every result — node counts, censuses, violation order, traces, and
// the partial results of cancelled or budget-exhausted runs — is a pure
// function of the root set.
package frontier

import "repro/internal/fingerprint"

// Dedup selects how an explorer deduplicates visited nodes.
type Dedup int

const (
	// DedupFingerprint (the default) admits nodes by 128-bit fingerprint
	// alone. Two distinct nodes collide only with probability ~2^-128 per
	// pair; canonical strings are never built for dedup.
	DedupFingerprint Dedup = iota
	// DedupVerified admits by fingerprint but verifies every fingerprint
	// hit against the stored canonical key, so a collision downgrades to a
	// counted event (and the colliding node is explored, not dropped).
	DedupVerified
	// DedupStrings is the reference engine: admission by full canonical
	// key, collision-proof and allocation-heavy. The differential suites
	// pit the other modes against it.
	DedupStrings
)

// String names the mode.
func (d Dedup) String() string {
	switch d {
	case DedupFingerprint:
		return "fingerprint"
	case DedupVerified:
		return "verified"
	case DedupStrings:
		return "strings"
	default:
		return "invalid"
	}
}

// SeqVisited is the visited set of one breadth-first walk, in any of the
// three dedup modes: 16-byte digests under fingerprint dedup, digests
// mapped to the canonical keys that produced them under verified dedup,
// and full canonical keys under strings dedup. It is not safe for
// concurrent use; each walk owns its set.
type SeqVisited struct {
	mode       Dedup
	fp         map[fingerprint.Digest]struct{}
	keys       map[string]struct{}
	verified   map[fingerprint.Digest][]string
	collisions int64
}

// NewSeqVisited returns an empty set for the given dedup mode.
func NewSeqVisited(mode Dedup) *SeqVisited {
	v := &SeqVisited{mode: mode}
	switch mode {
	case DedupFingerprint:
		v.fp = make(map[fingerprint.Digest]struct{})
	case DedupVerified:
		v.verified = make(map[fingerprint.Digest][]string)
	default:
		v.keys = make(map[string]struct{})
	}
	return v
}

// Admit inserts the node's dedup handle, reporting whether it was new.
// Only the handle the mode compares is read: fp under fingerprint dedup,
// key under strings dedup, both under verified dedup, where a digest
// already holding a different key counts as a collision and the new key
// is admitted rather than merged away.
func (v *SeqVisited) Admit(fp fingerprint.Digest, key string) bool {
	switch v.mode {
	case DedupFingerprint:
		if _, ok := v.fp[fp]; ok {
			return false
		}
		v.fp[fp] = struct{}{}
		return true
	case DedupVerified:
		keys := v.verified[fp]
		for _, k := range keys {
			if k == key {
				return false
			}
		}
		if len(keys) > 0 {
			v.collisions++
		}
		v.verified[fp] = append(keys, key)
		return true
	default:
		if _, ok := v.keys[key]; ok {
			return false
		}
		v.keys[key] = struct{}{}
		return true
	}
}

// Seen reports whether the node's dedup handle has already been admitted,
// without admitting it.
func (v *SeqVisited) Seen(fp fingerprint.Digest, key string) bool {
	switch v.mode {
	case DedupFingerprint:
		_, ok := v.fp[fp]
		return ok
	case DedupVerified:
		for _, k := range v.verified[fp] {
			if k == key {
				return true
			}
		}
		return false
	default:
		_, ok := v.keys[key]
		return ok
	}
}

// Collisions returns the number of verified fingerprint collisions
// detected so far (always 0 outside verified mode).
func (v *SeqVisited) Collisions() int64 { return v.collisions }
