package tukey

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSessionLogLoad opens arbitrary bytes as a session log. A file the
// loader refuses must be left byte for byte as it was; a file it accepts
// is compacted, and reopening the compacted file must give back the same
// sessions.
func FuzzSessionLogLoad(f *testing.F) {
	hdr := `{"version":2}` + "\n"
	put := `{"op":"put","token":"t1","session":{"Identity":{"Provider":"shibboleth","Identifier":"a@b"},"Expires":"2012-11-10T09:08:07.000000006+01:00"}}` + "\n"
	for _, seed := range []string{
		hdr,
		hdr + put + `{"op":"del","token":"t1"}` + "\n" + put,
		hdr + put + `{"op":"expire","before":"2013-01-01T00:00:00Z"}` + "\n",
		hdr + put[:len(put)/2], // a torn last line
		`{"sessions":{"t1":{}}}` + "\n",
		`{"version":1}` + "\n" + put,
		hdr + `{"op":"put","token":"t1"}` + "\n",
		hdr + `{"op":"expire"}` + "\n",
		hdr + `{"op":"rename","token":"t1"}` + "\n",
		"",
		hdr + `{"op":"put","token":"` + strings.Repeat("x", 1<<20) + `"}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "sessions.log")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := NewFileSessionStore(path)
		if err != nil {
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, raw) {
				t.Fatalf("refused log (%v) was changed: %q → %q (%v)", err, raw, after, rerr)
			}
			return
		}
		again, err := NewFileSessionStore(path)
		if err != nil {
			t.Fatalf("compacted log does not reopen: %v", err)
		}
		if s.Count() != again.Count() {
			t.Fatalf("%d sessions, %d after reopening", s.Count(), again.Count())
		}
		for tok, want := range s.m {
			got, ok := again.Get(tok)
			if !ok || got.Identity != want.Identity || !got.Expires.Equal(want.Expires) {
				t.Fatalf("token %q: %+v, %v after reopening; want %+v", tok, got, ok, want)
			}
		}
	})
}
