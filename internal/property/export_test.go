package property

// HasColumn reports whether v's chunk has allocated field slot's column.
func HasColumn(v *Vertex, slot int) bool { return v.chunk.cols[slot].Load() != nil }

// Segments returns the number of segments publishIndex recorded for vw.
func Segments(vw *View) int { return len(vw.segs) }

// DiffGraphs is diffGraphs for the external tests: the first difference in
// shard order, lists, simulated layout or arena high-water mark, or "".
func DiffGraphs(a, b *Graph) string { return diffGraphs(a, b) }
