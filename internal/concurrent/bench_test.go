package concurrent

import "testing"

func BenchmarkHierBitmapTrySet(b *testing.B) {
	bm := NewHierBitmap(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.TrySet(i & (1<<20 - 1))
	}
}

func BenchmarkFrontierPush(b *testing.B) {
	f := NewFrontier(b.N + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Push(int32(i))
	}
}

func BenchmarkParallelItems(b *testing.B) {
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelItems(1024, 4, 64, func(i int) { sink += int64(i) })
	}
	_ = sink
}
