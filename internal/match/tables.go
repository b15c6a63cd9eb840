package match

import "sync"

// chainTables is the hash-chain index behind both HashMatcher and
// SpacedIndex: head maps a bucket to its newest indexed position and prev
// links each indexed position to the next older one in its bucket. Both
// store position+1, so a zeroed table is an empty one and 0 ends a chain.
type chainTables struct {
	head []int32 // 1<<tableBits buckets, whatever the input size
	prev []int32 // one link per window start
}

// maxPooledPrev caps the prev table a released index hands back to the
// pool. A larger one is left to the collector, so one large input does not
// keep its table alive for the life of the process.
const maxPooledPrev = 1 << 20

// tablePool recycles chain tables across indexes. Codecs build one index per
// Compress call, and the block engine calls Compress once per block, so
// without the pool every 64 KiB block would allocate and fill a 1 MiB head
// table.
var tablePool = sync.Pool{New: func() any {
	return &chainTables{head: make([]int32, 1<<tableBits)}
}}

// newChainTables returns empty tables with room for n window starts. prev is
// not cleared: insert writes prev[pos] before any chain can reach pos.
func newChainTables(n int) *chainTables {
	t := tablePool.Get().(*chainTables)
	if cap(t.prev) < n {
		t.prev = make([]int32, n)
	}
	t.prev = t.prev[:n]
	return t
}

// insert makes pos the newest entry of bucket h.
func (t *chainTables) insert(h uint32, pos int) {
	t.prev[pos] = t.head[h]
	t.head[h] = int32(pos + 1)
}

// footprint is the tables' memory in bytes, as the cost model counts it.
func (t *chainTables) footprint() int { return len(t.head)*4 + len(t.prev)*4 }

// release clears head and hands the tables back to the pool.
func (t *chainTables) release() {
	clear(t.head)
	if cap(t.prev) > maxPooledPrev {
		t.prev = nil
	}
	tablePool.Put(t)
}
