package eval

import (
	"os"
	"testing"

	"caribou/internal/carbon"
)

// goldenResult decodes the checked-in quick-Fig 7 payload: the unit a warm
// sweep reads from the run store and re-accounts once per run.
func goldenResult(b *testing.B) (RunConfig, []byte) {
	b.Helper()
	payload, err := os.ReadFile(goldenBlob)
	if err != nil {
		b.Fatal(err)
	}
	return goldenConfig(), payload
}

// BenchmarkDecodeResult times the durable cache's read path after the
// store: payload bytes to a Result ready to summarize.
func BenchmarkDecodeResult(b *testing.B) {
	cfg, payload := goldenResult(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(cfg, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarize times one accounting pass over a decoded result.
func BenchmarkSummarize(b *testing.B) {
	cfg, payload := goldenResult(b)
	res, err := DecodeResult(cfg, payload)
	if err != nil {
		b.Fatal(err)
	}
	tx := carbon.WorstCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Summarize(tx); err != nil {
			b.Fatal(err)
		}
	}
}
