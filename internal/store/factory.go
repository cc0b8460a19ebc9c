package store

import (
	"fmt"
	"maps"
	"net/url"
	"slices"
	"strings"
	"sync"
)

// Opener constructs a Store from a parsed URL. The query carries
// backend options; openers reject parameters they do not read, so a
// mistyped option fails the open instead of being silently ignored.
type Opener func(u *url.URL) (Store, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Opener{}
)

// Register installs an opener for a URL scheme, replacing any previous
// registration. The built-in schemes (mem, file) are registered at
// init; deployments can add their own backends (an S3 SDK, a dedup
// engine, ...) without touching this package.
func Register(scheme string, open Opener) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[strings.ToLower(scheme)] = open
}

// Open constructs a store from a backend URL:
//
//	mem://                      sharded in-memory store
//	file:///var/blocks?sync=1   file-backed store (sync=1 fsyncs writes
//	                            and directory renames)
//
// or any scheme a deployment registered. An option the backend does not
// read is an error, and so is a scheme nobody registered: its message
// names the registered ones.
func Open(rawURL string) (Store, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("store: open %q: %w", rawURL, err)
	}
	if u.Scheme == "" {
		return nil, fmt.Errorf("store: open %q: no scheme (registered: %s)", rawURL, registered())
	}
	registryMu.RLock()
	open, ok := registry[strings.ToLower(u.Scheme)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: open %q: unknown backend scheme %q (registered: %s)", rawURL, u.Scheme, registered())
	}
	st, err := open(u)
	if err != nil {
		return nil, fmt.Errorf("store: open %q: %w", rawURL, err)
	}
	return st, nil
}

// registered lists the registered schemes, sorted.
func registered() string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return strings.Join(slices.Sorted(maps.Keys(registry)), ", ")
}

func init() {
	Register("mem", func(u *url.URL) (Store, error) {
		if err := onlyParams(u.Query()); err != nil {
			return nil, fmt.Errorf("mem store: %w", err)
		}
		return NewMemStore(), nil
	})
	Register("file", openFile)
}

// onlyParams fails on the first query key, in sorted order, that is not
// one of known.
func onlyParams(q url.Values, known ...string) error {
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(known, k) {
			return fmt.Errorf("unknown option %q", k)
		}
	}
	return nil
}

// openFile maps file URLs onto NewFSStore. Both absolute
// ("file:///var/blocks") and relative ("file:data" or "file://data/x",
// where the host part is read as the first path element) forms work.
func openFile(u *url.URL) (Store, error) {
	path := u.Path
	switch {
	case u.Opaque != "":
		path = u.Opaque
	case u.Host != "":
		path = u.Host + u.Path
	}
	if path == "" {
		return nil, fmt.Errorf("file store: empty path")
	}
	q := u.Query()
	if err := onlyParams(q, "sync"); err != nil {
		return nil, fmt.Errorf("file store: %w", err)
	}
	return NewFSStore(path, boolParam(q, "sync"))
}

// boolParam reads a boolean query option: absent or "0"/"false" is
// false, anything else ("1", "true", bare "sync=") is true.
func boolParam(q url.Values, name string) bool {
	if !q.Has(name) {
		return false
	}
	v := strings.ToLower(q.Get(name))
	return v != "0" && v != "false"
}
