package perfmon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The stream digest pins the order of the instrumented event stream: the
// sha256 of each goldenKernels recording, byte for byte. TestProfileGolden
// compares what the machine model makes of a stream, and a load and a
// store that swap places inside one kernel body move none of its totals;
// they do move this digest. A change to a kernel's instrumented loop that
// means to keep its events (a refactor, a new loop shape) must leave the
// file as it is. Regenerate it only for an intentional change of a
// kernel's event stream, together with the profile golden:
//
//	GRAPHBIG_UPDATE_PROFILE=1 go test ./internal/perfmon -run 'TestProfileGolden|TestStreamDigestGolden'
const streamDigestGolden = "testdata/stream_digest.json"

// TestStreamDigestGolden checks each kernel's recorded stream against its
// digest in streamDigestGolden, one subtest per kernel.
func TestStreamDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("stream digest golden is not a -short test")
	}
	streams := goldenStreams(t)
	got := make(map[string]string, len(streams))
	for i, s := range streams {
		sum := sha256.Sum256(s)
		got[goldenKernels[i]] = hex.EncodeToString(sum[:])
	}

	if os.Getenv("GRAPHBIG_UPDATE_PROFILE") != "" {
		if err := os.MkdirAll(filepath.Dir(streamDigestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamDigestGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d stream digests to %s", len(got), streamDigestGolden)
		return
	}

	data, err := os.ReadFile(streamDigestGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with GRAPHBIG_UPDATE_PROFILE=1 to record): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenKernels) {
		t.Errorf("golden has %d digests, want one per kernel (%d)", len(want), len(goldenKernels))
	}
	for i, name := range goldenKernels {
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s: missing from golden", name)
			}
			if got[name] != w {
				t.Errorf("%s stream (%d bytes) has sha256 %s, golden %s", name, len(streams[i]), got[name], w)
			}
		})
	}
}
