// Package qualifiers ships the qualifier library as QDL files, one
// definition each. internal/quals reads its sources from Files, so the files
// in this directory are the only copy.
package qualifiers

import "embed"

// Files holds this directory's *.qdl definitions.
//
//go:embed *.qdl
var Files embed.FS
