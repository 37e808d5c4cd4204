package lmfao

// Compile-time contract assertions for the serving API: every serving type
// must satisfy its interface. A drift here (a renamed method, a changed
// signature) fails the build — the vet-style counterpart of the doc-comment
// method-list check in the docdrift analyzer (internal/analysis/docdrift).
var (
	_ Maintainer = (*Session)(nil)
	_ Maintainer = (*ShardedSession)(nil)
	_ Maintainer = (*DurableSession)(nil)

	_ Queryable = (*Snapshot)(nil)
	_ Queryable = (*ShardedSnapshot)(nil)

	_ Requerier = (*Snapshot)(nil)
	_ Requerier = (*ShardedSnapshot)(nil)
)
