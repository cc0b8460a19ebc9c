package fs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"blobseer/internal/rpc"
)

// TestErrCodesRoundTrip: every sentinel, wrapped with a handler's
// detail, survives the wire (its code and message) so errors.Is works
// across RPC boundaries and the detail reaches the client.
func TestErrCodesRoundTrip(t *testing.T) {
	sentinels := []error{
		ErrNotFound, ErrExists, ErrIsDir, ErrNotDir, ErrNotEmpty, ErrNoAppend, ErrBusy,
	}
	for _, want := range sentinels {
		sent := fmt.Errorf("%w: /a/b", want)
		got := &rpc.RemoteError{Code: rpc.CodeOf(sent), Msg: sent.Error()}
		if !errors.Is(got, want) || !strings.Contains(got.Error(), "/a/b") {
			t.Errorf("%v did not survive the wire: got %v", want, got)
		}
	}
}
