package qdl

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
)

// Fingerprint returns a content hash of every definition in the registry, in
// registration order. Def.String serializes the full semantics of a
// definition — kind, subject pattern, every case/restrict/assign clause,
// disallow/ondecl/noassign flags, and the invariant — so two registries with
// equal fingerprints execute identical type rules and generate identical
// proof obligations. The checker's function cache keys on it (contextKey),
// once per checked file. The hash is computed on the first call and reused
// until the next Add; concurrent callers are safe.
func (r *Registry) Fingerprint() string {
	r.fpMu.Lock()
	defer r.fpMu.Unlock()
	if r.fp == "" {
		h := sha256.New()
		for _, d := range r.order {
			io.WriteString(h, d.String())
			io.WriteString(h, "\x00")
		}
		r.fp = hex.EncodeToString(h.Sum(nil))
	}
	return r.fp
}
