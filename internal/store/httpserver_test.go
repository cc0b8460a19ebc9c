package store

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzStoreHandler sends arbitrary method, target, Range header and body
// to the store HTTP handler over a mem:// store holding one object. It
// must answer every request, never panic.
func FuzzStoreHandler(f *testing.F) {
	f.Add("GET", "/o/k", "bytes=1-9223372036854775807", []byte(nil)) // off+length overflowed the range clamp
	f.Add("GET", "/o/k", "bytes=0-9223372036854775807", []byte(nil))
	f.Add("GET", "/o/k", "bytes=3-", []byte(nil))
	f.Add("GET", "/o/k", "bytes=5-2", []byte(nil))
	f.Add("GET", "/o/k", "", []byte(nil))
	f.Add("HEAD", "/o/absent", "", []byte(nil))
	f.Add("PUT", "/o/a%2Fb", "", []byte("value"))
	f.Add("DELETE", "/o/k", "", []byte(nil))
	f.Add("GET", "/?list=1&prefix=k", "", []byte(nil))
	f.Add("GET", "/?stats=1", "", []byte(nil))
	f.Add("DELETE", "/?prefix=", "", []byte(nil))
	f.Add("POST", "/o/", "bytes=-", []byte("x"))
	f.Fuzz(func(t *testing.T, method, target, rng string, body []byte) {
		st := NewMemStore()
		st.Put("k", []byte("0123456789"))
		u, err := url.Parse(target)
		if err != nil {
			u = &url.URL{Path: target}
		}
		r := &http.Request{Method: method, URL: u, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
		if rng != "" {
			r.Header.Set("Range", rng)
		}
		w := httptest.NewRecorder()
		Handler(st).ServeHTTP(w, r)
		if w.Code < 200 || w.Code > 599 {
			t.Fatalf("%s %q (Range %q) answered status %d", method, target, rng, w.Code)
		}
	})
}

// TestParseRangeNoWrap: a range reaching math.MaxInt64 reads to the end
// instead of wrapping into a negative length.
func TestParseRangeNoWrap(t *testing.T) {
	for rng, want := range map[string][2]int64{
		"bytes=0-9223372036854775807": {0, -1},
		"bytes=1-9223372036854775807": {1, 9223372036854775807},
		"bytes=2-5":                   {2, 4},
	} {
		if off, length, ok := parseRange(rng); !ok || off != want[0] || length != want[1] {
			t.Errorf("parseRange(%q) = %d, %d, %v; want %d, %d", rng, off, length, ok, want[0], want[1])
		}
	}
}
