package rpc

import (
	"context"
	"strings"
	"testing"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// TestMeteredMux: a metered Mux counts a method's request as its handler
// starts, so a handler still blocked shows in ops_, and the call's error
// and service time once the handler returns; a spawned and an inline
// method alike. A request for an unknown method counts nothing.
func TestMeteredMux(t *testing.T) {
	for _, inline := range []bool{false, true} {
		reg := obs.NewRegistry()
		mux := NewMeteredMux("test", reg)
		entered, release := make(chan struct{}), make(chan struct{})
		refuse := func(context.Context, []byte) (*wire.Buffer, error) {
			close(entered)
			<-release
			return nil, CodedError(77, "refused")
		}
		if inline {
			mux.HandleInline(1, "refuse", refuse)
		} else {
			mux.HandleFrame(1, "refuse", refuse)
		}
		mux.HandleFrame(2, "answer", func(context.Context, []byte) (*wire.Buffer, error) { return nil, nil })
		c := dialEcho(t, mux)
		ctx := context.Background()

		done := make(chan error, 1)
		go func() {
			_, err := c.Call(ctx, 1, nil)
			done <- err
		}()
		<-entered
		meters := func() (ops, errs, lat int64) {
			s := reg.Snapshot()
			return s.Counters["ops_refuse"], s.Counters["errors_refuse"], s.Histograms["latency_refuse"].Count
		}
		if ops, errs, lat := meters(); ops != 1 || errs != 0 || lat != 0 {
			t.Errorf("inline=%v: a blocked handler reads ops %d, errors %d, latency count %d; want 1, 0, 0", inline, ops, errs, lat)
		}
		close(release)
		if err := <-done; CodeOf(err) != 77 {
			t.Fatalf("inline=%v: call = %v, want code 77", inline, err)
		}
		if ops, errs, lat := meters(); ops != 1 || errs != 1 || lat != 1 {
			t.Errorf("inline=%v: a refused call reads ops %d, errors %d, latency count %d; want 1, 1, 1", inline, ops, errs, lat)
		}

		if _, err := c.Call(ctx, 2, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(ctx, 9, nil); err == nil || !strings.Contains(err.Error(), "unknown method 9") {
			t.Fatalf("inline=%v: call of method 9 = %v, want unknown method", inline, err)
		}
		s := reg.Snapshot()
		if s.Counters["ops_answer"] != 1 || s.Counters["errors_answer"] != 0 || s.Histograms["latency_answer"].Count != 1 {
			t.Errorf("inline=%v: an answered call reads %v, %v", inline, s.Counters, s.Histograms["latency_answer"].Count)
		}
		if len(s.Counters) != 4 || len(s.Histograms) != 2 {
			t.Errorf("inline=%v: registry holds counters %v and %d histograms, want the two methods' alone", inline, s.Counters, len(s.Histograms))
		}
	}
}

// TestUnmeteredMuxRegistersNoMeters: a Mux without a registry names its
// methods but meters none of them.
func TestUnmeteredMuxRegistersNoMeters(t *testing.T) {
	mux := NewMux()
	mux.HandleFrame(1, "answer", func(context.Context, []byte) (*wire.Buffer, error) { return nil, nil })
	if h := mux.lookup(1); h.name != "answer" || h.ops != nil || h.errs != nil || h.lat != nil {
		t.Errorf("unmetered method = %+v, want its name and no meters", h)
	}
}

// TestRegisterWithoutNamePanics: a named method needs a name.
func TestRegisterWithoutNamePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "without a name") {
			t.Errorf("HandleFrame with an empty name: recovered %v, want a panic naming the fault", r)
		}
	}()
	NewMux().HandleFrame(1, "", func(context.Context, []byte) (*wire.Buffer, error) { return nil, nil })
}

// TestRegisterDuplicateNamePanics: two methods of one Mux under one name
// would share their meters; re-registering a method under its own name
// replaces it.
func TestRegisterDuplicateNamePanics(t *testing.T) {
	mux := NewMeteredMux("test", obs.NewRegistry())
	fn := func(context.Context, []byte) (*wire.Buffer, error) { return nil, nil }
	mux.HandleFrame(1, "put", fn)
	mux.HandleInline(1, "put", fn) // the same method again: no panic
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), `both named "put"`) {
			t.Errorf("a second method named put: recovered %v, want a panic naming both", r)
		}
	}()
	mux.HandleInline(2, "put", fn)
}
