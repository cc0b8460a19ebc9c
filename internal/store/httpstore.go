package store

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// HTTPStore is a Store backed by a remote HTTP object server speaking
// an S3-flavored protocol — the shape production blobs actually live
// behind (an object store, a blob gateway, a peer's Handler). Relative
// to the base URL:
//
//	PUT    /o/<escaped-key>        store an object (body = value)
//	GET    /o/<escaped-key>        fetch it (optional Range: bytes=a-b)
//	HEAD   /o/<escaped-key>        existence probe
//	DELETE /o/<escaped-key>        remove it (absent is not an error)
//	GET    /?list=1&prefix=P       enumerate keys (one escaped key per line)
//	DELETE /?prefix=P              bulk delete, response body = count
//	GET    /?stats=1               "items bytes"
//
// Keys are URL-path-escaped on the wire (block keys are arbitrary
// strings). Handler serves the same protocol over any local Store, so
// every test runs against a real in-process server and any blobseer
// node can export its store to peers.
type HTTPStore struct {
	base   string // no trailing slash
	client *http.Client
}

// NewHTTPStore returns a store speaking to the object server at base
// (e.g. "http://127.0.0.1:9000/blocks").
func NewHTTPStore(base string) *HTTPStore {
	return &HTTPStore{base: strings.TrimRight(base, "/"), client: &http.Client{}}
}

func (s *HTTPStore) objURL(key string) string {
	return s.base + "/o/" + url.PathEscape(key)
}

// do runs one request and fails on any status outside ok. The response
// body is fully drained so the connection returns to the pool.
func (s *HTTPStore) do(req *http.Request, ok ...int) ([]byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpstore: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("httpstore: %s %s: %w", req.Method, req.URL.Path, err)
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			return body, nil
		}
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, ErrNotFound
	}
	return nil, fmt.Errorf("httpstore: %s %s: unexpected status %s", req.Method, req.URL.Path, resp.Status)
}

// Put implements Store.
func (s *HTTPStore) Put(key string, val []byte) error {
	req, err := http.NewRequest(http.MethodPut, s.objURL(key), bytes.NewReader(val))
	if err != nil {
		return err
	}
	_, err = s.do(req, http.StatusOK, http.StatusCreated, http.StatusNoContent)
	return err
}

// PutWriter implements Store: frames assemble locally and the value
// uploads in one PUT on Commit, so a half-written block is never
// visible remotely.
func (s *HTTPStore) PutWriter(key string) (BlockWriter, error) { return newBufWriter(s, key), nil }

func (s *HTTPStore) install(key string, buf []byte) error { return s.Put(key, buf) }

// Get implements Store.
func (s *HTTPStore) Get(key string) ([]byte, error) { return s.GetRange(key, 0, -1) }

// GetRange implements Store.
func (s *HTTPStore) GetRange(key string, off, length int64) (out []byte, err error) {
	out = []byte{}
	err = s.ranged(key, off, length, func(body io.Reader) (err error) {
		out, err = io.ReadAll(body)
		return err
	})
	return out, err
}

// ReadAt implements Store: the body lands in p with no slice between.
func (s *HTTPStore) ReadAt(key string, p []byte, off int64) (n int, err error) {
	err = s.ranged(key, off, int64(len(p)), func(body io.Reader) (err error) {
		if n, err = io.ReadFull(body, p); err == io.EOF || err == io.ErrUnexpectedEOF {
			err = nil // the value ended first
		}
		return err
	})
	return n, err
}

// ranged issues the range request behind GetRange and ReadAt and hands
// the response body to read. The clamp semantics of the contract map
// onto HTTP ranges: a start past the end answers 416, which is the
// contract's empty result (read is not called).
func (s *HTTPStore) ranged(key string, off, length int64, read func(body io.Reader) error) error {
	if off < 0 {
		off = 0 // clamp keeps the requested length, matching clampRange
	}
	if length == 0 {
		if !s.Has(key) {
			return ErrNotFound
		}
		return nil
	}
	req, err := http.NewRequest(http.MethodGet, s.objURL(key), nil)
	if err != nil {
		return err
	}
	if length < 0 || length > math.MaxInt64-off { // the end would overflow: read to it
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", off))
	} else {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("httpstore: get %s: %w", key, err)
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) // drained, the connection is reused
	switch resp.StatusCode {
	case http.StatusPartialContent, http.StatusOK:
		return read(resp.Body)
	case http.StatusRequestedRangeNotSatisfiable:
		return nil
	case http.StatusNotFound:
		return ErrNotFound
	}
	return fmt.Errorf("httpstore: get %s: unexpected status %s", key, resp.Status)
}

// Has implements Store.
func (s *HTTPStore) Has(key string) bool {
	req, err := http.NewRequest(http.MethodHead, s.objURL(key), nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Delete implements Store.
func (s *HTTPStore) Delete(key string) error {
	req, err := http.NewRequest(http.MethodDelete, s.objURL(key), nil)
	if err != nil {
		return err
	}
	_, err = s.do(req, http.StatusOK, http.StatusNoContent, http.StatusNotFound)
	return err
}

// DeletePrefix implements Store. The sweep runs server-side: one bulk
// DELETE instead of list + N round-trips.
func (s *HTTPStore) DeletePrefix(prefix string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, s.base+"/?prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return 0, err
	}
	body, err := s.do(req, http.StatusOK)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(body)))
	if err != nil {
		return 0, fmt.Errorf("httpstore: delete prefix %q: bad count %q", prefix, body)
	}
	return n, nil
}

// Keys implements Store.
func (s *HTTPStore) Keys(prefix string) ([]string, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/?list=1&prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return nil, err
	}
	body, err := s.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		key, err := url.PathUnescape(line)
		if err != nil {
			return nil, fmt.Errorf("httpstore: list: bad key %q", line)
		}
		out = append(out, key)
	}
	return out, nil
}

// Stats implements Store.
func (s *HTTPStore) Stats() Stats {
	req, err := http.NewRequest(http.MethodGet, s.base+"/?stats=1", nil)
	if err != nil {
		return Stats{}
	}
	body, err := s.do(req, http.StatusOK)
	if err != nil {
		return Stats{}
	}
	var st Stats
	if _, err := fmt.Sscanf(string(body), "%d %d", &st.Items, &st.Bytes); err != nil {
		return Stats{}
	}
	return st
}

// Close implements Store.
func (s *HTTPStore) Close() error {
	s.client.CloseIdleConnections()
	return nil
}
