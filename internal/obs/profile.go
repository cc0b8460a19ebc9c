package obs

import (
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"
)

// FetchCPUShares profiles an endpoint's process for d (its
// /debug/pprof/profile) and adds its CPU time to shares, as CPUShares
// does.
func FetchCPUShares(endpoint string, d time.Duration, shares map[string]int64) error {
	u, err := endpointURL(endpoint, "/debug/pprof/profile", fmt.Sprintf("seconds=%d", max(1, int(d.Seconds()+0.5))))
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Timeout: d + fetchTimeout}).Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs: %s: %s", u, resp.Status)
	}
	return CPUShares(resp.Body, shares)
}

// CPUShares decodes a CPU profile (gzipped profile.proto, as
// runtime/pprof writes it) and adds each sample's CPU nanoseconds to
// shares under its profiler labels, sorted and joined
// ("method=assign,role=vmanager"), or "" for an unlabelled sample.
func CPUShares(r io.Reader, shares map[string]int64) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		ns     int64
		labels []uint64 // string table indexes: key, value, key, value...
	}
	var samples []sample
	var strs []string
	var bad error
	err = protoFields(b, func(f int, _ uint64, p []byte) {
		switch f {
		case 6:
			strs = append(strs, string(p))
		case 2: // a Sample: its two values, unpacked, CPU time last, and its labels
			var s sample
			bad = cmp.Or(bad, protoFields(p, func(f int, v uint64, p []byte) {
				switch f {
				case 2:
					s.ns = int64(v)
				case 3: // a Label: key and str
					kv := []uint64{0, 0}
					bad = cmp.Or(bad, protoFields(p, func(f int, v uint64, _ []byte) {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
					}))
					s.labels = append(s.labels, kv...)
				}
			}))
			samples = append(samples, s)
		}
	})
	if err = cmp.Or(err, bad); err != nil {
		return err
	}
	for _, s := range samples {
		var kvs []string
		for i := 0; i < len(s.labels); i += 2 {
			if max(s.labels[i], s.labels[i+1]) >= uint64(len(strs)) {
				return errBadProfile
			}
			kvs = append(kvs, strs[s.labels[i]]+"="+strs[s.labels[i+1]])
		}
		slices.Sort(kvs)
		shares[strings.Join(kvs, ",")] += s.ns
	}
	return nil
}

var errBadProfile = errors.New("obs: malformed profile")

// protoFields walks the fields of protobuf message b, calling fn with
// each one's number and, for a varint, its value or, for a
// length-delimited field, its bytes. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, p []byte)) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		var v uint64
		var p []byte
		switch tag & 7 {
		case 0:
			v, n = binary.Uvarint(b)
		case 1:
			n = 8
		case 5:
			n = 4
		case 2:
			l, m := binary.Uvarint(b)
			if m <= 0 || l > uint64(len(b)-m) {
				return errBadProfile
			}
			p, n = b[m:m+int(l)], m+int(l)
		default:
			return errBadProfile
		}
		if n <= 0 || n > len(b) {
			return errBadProfile
		}
		b = b[n:]
		if tag&7 == 0 || tag&7 == 2 {
			fn(int(tag>>3), v, p)
		}
	}
	return nil
}
