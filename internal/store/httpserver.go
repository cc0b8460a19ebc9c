package store

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Handler serves a Store over the HTTP object protocol HTTPStore
// speaks (see its doc for the routes). It turns any node into a blob
// server: tests run backends against a real in-process HTTP server,
// and a deployment can export a provider's store to remote peers. Mount
// it at the base path of the consumers' store URL (wrap with
// http.StripPrefix when nesting under a longer path).
func Handler(st Store) http.Handler {
	return &storeHandler{st: st}
}

type storeHandler struct {
	st Store
}

func (h *storeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The escaped path preserves %2F inside keys; URL.Path would have
	// already collapsed it into a separator.
	esc := r.URL.EscapedPath()
	if rest, ok := strings.CutPrefix(esc, "/o/"); ok {
		key, err := url.PathUnescape(rest)
		if err != nil || key == "" || strings.Contains(rest, "/") {
			http.Error(w, "bad object key", http.StatusBadRequest)
			return
		}
		h.object(w, r, key)
		return
	}
	if esc == "/" || esc == "" {
		h.root(w, r)
		return
	}
	http.NotFound(w, r)
}

func (h *storeHandler) object(w http.ResponseWriter, r *http.Request, key string) {
	switch r.Method {
	case http.MethodGet:
		if rng := r.Header.Get("Range"); rng != "" {
			h.objectRange(w, key, rng)
			return
		}
		val, err := h.st.Get(key)
		if err == ErrNotFound {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(val)))
		w.Write(val)

	case http.MethodHead:
		if !h.st.Has(key) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)

	case http.MethodPut:
		val, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.st.Put(key, val); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)

	case http.MethodDelete:
		if err := h.st.Delete(key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)

	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// objectRange answers a ranged GET. The store's clamp semantics apply,
// so a start past the end is an empty 206 rather than a 416 — the
// client treats both as the contract's empty slice.
func (h *storeHandler) objectRange(w http.ResponseWriter, key, rng string) {
	off, length, ok := parseRange(rng)
	if !ok {
		http.Error(w, "bad range", http.StatusBadRequest)
		return
	}
	val, err := h.st.GetRange(key, off, length)
	if err == ErrNotFound {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.WriteHeader(http.StatusPartialContent)
	w.Write(val)
}

// parseRange handles the single-range forms the client emits:
// "bytes=a-b" (length b-a+1) and "bytes=a-" (to the end, length -1).
func parseRange(rng string) (off, length int64, ok bool) {
	spec, found := strings.CutPrefix(rng, "bytes=")
	if !found {
		return 0, 0, false
	}
	a, b, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	off, err := strconv.ParseInt(a, 10, 64)
	if err != nil || off < 0 {
		return 0, 0, false
	}
	if b == "" {
		return off, -1, true
	}
	end, err := strconv.ParseInt(b, 10, 64)
	if err != nil || end < off {
		return 0, 0, false
	}
	if end-off == math.MaxInt64 { // end-off+1 would wrap: to the end
		return off, -1, true
	}
	return off, end - off + 1, true
}

func (h *storeHandler) root(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case r.Method == http.MethodGet && q.Has("list"):
		keys, err := h.st.Keys(q.Get("prefix"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, k := range keys {
			fmt.Fprintln(w, url.PathEscape(k))
		}

	case r.Method == http.MethodGet && q.Has("stats"):
		st := h.st.Stats()
		fmt.Fprintf(w, "%d %d", st.Items, st.Bytes)

	case r.Method == http.MethodDelete && q.Has("prefix"):
		n, err := h.st.DeletePrefix(q.Get("prefix"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "%d", n)

	default:
		http.Error(w, "bad request", http.StatusBadRequest)
	}
}
