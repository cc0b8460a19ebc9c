package rpc_test

import (
	"errors"
	"fmt"
	"testing"

	"blobseer/internal/fs"
	"blobseer/internal/placement"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
)

// TestErrCodesDistinct pins the one code space every service shares: a
// RemoteError matches any sentinel of its code, so two sentinels (or a
// sentinel and a status) on one code would match each other across the
// wire. Each coded sentinel must come back from a RemoteError round
// trip matching itself, and no other.
func TestErrCodesDistinct(t *testing.T) {
	sentinels := []error{
		provider.ErrBlockNotFound,
		vmanager.ErrUnknownBlob, vmanager.ErrUnaligned, vmanager.ErrBadRange,
		vmanager.ErrBadVersion, vmanager.ErrTimeout, vmanager.ErrPruned,
		vmanager.ErrBadPrune, vmanager.ErrAborted, vmanager.ErrBadPlacement,
		vmanager.ErrEndMoved,
		placement.ErrNoProviders,
		fs.ErrNotFound, fs.ErrExists, fs.ErrIsDir, fs.ErrNotDir,
		fs.ErrNotEmpty, fs.ErrNoAppend, fs.ErrBusy,
	}
	seen := map[uint16]string{
		rpc.StatusOK:           "rpc.StatusOK",
		rpc.StatusError:        "rpc.StatusError",
		provider.CodeChainFail: "provider.CodeChainFail",
		// Retired: a binary built before its retirement still reads it.
		12: "the DHT's retired not-found (a miss is a presence flag)",
	}
	if len(seen) != 4 {
		t.Fatalf("the status constants share a code: %v", seen)
	}
	for _, s := range sentinels {
		code := rpc.CodeOf(s)
		if prev, dup := seen[code]; dup {
			t.Errorf("code %d is both %s and %q", code, prev, s)
		}
		seen[code] = s.Error()
	}
	for _, s := range sentinels {
		sent := fmt.Errorf("%w: detail", s)
		back := &rpc.RemoteError{Code: rpc.CodeOf(sent), Msg: sent.Error()}
		for _, other := range sentinels {
			if got := errors.Is(back, other); got != (other == s) {
				t.Errorf("%q across the wire: errors.Is(_, %q) = %v", s, other, got)
			}
		}
	}
}
