package overflowconv_test

import (
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/overflowconv"
)

func TestOverflowConv(t *testing.T) {
	analysis.RunTest(t, overflowconv.Analyzer, "internal/property", "internal/narrow")
}
