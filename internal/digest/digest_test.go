package digest_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/eadvfs/eadvfs/internal/digest"
)

// TestGoldenFormat pins the digest format to the one run manifests have
// recorded since PR 3: lowercase-hex SHA-256 of the compact JSON form.
// These literals were computed with `sha256sum` over the compact bytes —
// if this test fails, every manifest digest in the wild just changed
// meaning, so treat a failure as a contract break, not a test to update.
func TestGoldenFormat(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{
			name: "compact object",
			in:   `{"policy":"ea-dvfs","seed":1}`,
			want: "f63a7e1316ccd19311b31e31ff4e4f9a7927292b88ac70b11e80c9091e12b6b3",
		},
		{
			name: "indented form digests identically",
			in:   "{\n  \"policy\": \"ea-dvfs\",\n  \"seed\": 1\n}",
			want: "f63a7e1316ccd19311b31e31ff4e4f9a7927292b88ac70b11e80c9091e12b6b3",
		},
		{
			name: "non-JSON hashes verbatim",
			in:   "not json",
			want: "7ccfa1fbf3940e6f0c0375d87c0f9235a50514e14cb427bdfaf5077987b26ccf",
		},
	}
	for _, c := range cases {
		if got := digest.Compact([]byte(c.in)); got != c.want {
			t.Errorf("%s: Compact(%q) = %s, want %s", c.name, c.in, got, c.want)
		}
	}
}

// TestCompactMatchesRawSHA256 cross-checks Compact against a direct
// SHA-256 of pre-compacted bytes, so the golden literals above are not the
// only anchor.
func TestCompactMatchesRawSHA256(t *testing.T) {
	raw := []byte(`{"a":[1,2,3],"b":{"c":null}}`)
	sum := sha256.Sum256(raw)
	if got, want := digest.Compact(raw), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Compact = %s, want %s", got, want)
	}
}
