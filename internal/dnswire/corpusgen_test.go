package dnswire

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteSeedCorpus regenerates the checked-in fuzz seed corpus under
// testdata/fuzz/ from the golden messages. It is skipped unless
// WRITE_FUZZ_CORPUS=1, so a normal test run never touches testdata; rerun
// it after changing goldenMessages, malformedMessages or the
// FuzzDecodeName seeds.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	writeCorpus(t, "FuzzParseMessage", append(goldenMessages(t), malformedMessages(t)...))

	nameSeed := func(n Name) []byte {
		buf, err := appendName(nil, n, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	comp := nameSeed("www.example.com")
	writeCorpus(t, "FuzzDecodeName", [][]byte{
		nameSeed(""),
		nameSeed("www.example.com"),
		nameSeed("a.very.deep.chain.of.labels.example"),
		append(comp, 0xC0, 0x04),
		{0xC0, 0x00},
		{63},
		{1, '.', 0},
	})
}

func writeCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
