package property

import "github.com/graphbig/graphbig-go/internal/narrow"

// idIndex maps vertex IDs to dense int32 indices. An ID below len(flat) has
// its entry in flat (-1 when absent) and every other ID in sparse, so a
// lookup over dense IDs is one array read. A View builds the whole index at
// once, flat or map by denseIDLimit; an EdgeList grows one as IDs arrive.
// The zero value is an empty index.
type idIndex struct {
	flat   []int32
	sparse map[VertexID]int32
}

// denseIDLimit bounds the flat table: IDs count as dense while they stay
// below ~4 slots per vertex, which caps the table at a constant multiple of
// what it indexes. Generated datasets number their vertices 0..n-1.
func denseIDLimit(n int) uint64 { return uint64(4*n) + 1024 }

// denseIDs reports whether n vertices whose largest ID is maxID get a flat
// table: the one rule the View's index and Bulk's id→vertex table share.
func denseIDs(n int, maxID VertexID) bool {
	return n > 0 && uint64(maxID) < denseIDLimit(n)
}

// get returns id's index, or -1.
func (x *idIndex) get(id VertexID) int32 {
	if uint64(id) < uint64(len(x.flat)) {
		return x.flat[id]
	}
	if i, ok := x.sparse[id]; ok {
		return i
	}
	return -1
}

// put sets id's entry, present or not, where the index's current shape
// keeps it; an index with IDs past its flat table has its map already.
func (x *idIndex) put(id VertexID, i int32) {
	if uint64(id) < uint64(len(x.flat)) {
		x.flat[id] = i
	} else {
		x.sparse[id] = i
	}
}

// add enters the last of ids, the IDs indexed so far in index order, and
// first lets the table grow: to the power of two above the new ID, when
// denseIDLimit allows that size for this many IDs, re-entering every ID the
// larger table covers. Growth is geometric, so an ID is re-entered O(log n)
// times at worst, and an ID too large for the vertices seen so far costs one
// map entry.
func (x *idIndex) add(ids []VertexID) {
	i := len(ids) - 1
	id := ids[i]
	if limit := denseIDLimit(len(ids)); uint64(id) >= uint64(len(x.flat)) && uint64(id) < limit {
		size := uint64(1024)
		for size <= uint64(id) {
			size <<= 1
		}
		if size <= limit {
			old := uint64(len(x.flat))
			x.flat = make([]int32, size)
			for k := range x.flat {
				x.flat[k] = -1
			}
			for k, known := range ids[:i] {
				if uint64(known) < size {
					x.flat[known] = narrow.Index32(k)
					if uint64(known) >= old {
						delete(x.sparse, known)
					}
				}
			}
		}
	}
	if x.sparse == nil && uint64(id) >= uint64(len(x.flat)) {
		x.sparse = make(map[VertexID]int32)
	}
	x.put(id, narrow.Index32(i))
}
