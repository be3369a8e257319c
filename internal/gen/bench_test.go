package gen

import "testing"

func BenchmarkLDBC10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LDBC(10000, 42, 0)
	}
}

func BenchmarkTwitter10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Twitter(10000, 42, 0)
	}
}

func BenchmarkRoad10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Road(10000, 42, 0)
	}
}
