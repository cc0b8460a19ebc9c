package store

import (
	"fmt"
	"testing"
	"time"
)

func newTestTiered(t *testing.T, opts TierOptions) (*Tiered, *MemStore, *MemStore) {
	t.Helper()
	hot, cold := NewMemStore(), NewMemStore()
	ti := NewTiered(hot, cold, opts)
	t.Cleanup(func() { ti.Close() })
	return ti, hot, cold
}

func TestTieredWriteThroughLandsBothTiers(t *testing.T) {
	ti, hot, cold := newTestTiered(t, TierOptions{})
	if err := ti.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !holds(t, hot, "k") || !holds(t, cold, "k") {
		t.Fatalf("write-through put: hot=%v cold=%v, want both", holds(t, hot, "k"), holds(t, cold, "k"))
	}
}

func TestTieredPromotionOnRead(t *testing.T) {
	ti, hot, _ := newTestTiered(t, TierOptions{})
	if err := ti.Put("k", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if n, err := ti.DemoteNow(); err != nil || n != 1 {
		t.Fatalf("DemoteNow = (%d, %v)", n, err)
	}
	if holds(t, hot, "k") {
		t.Fatal("block still hot after demotion")
	}

	got, err := ti.Get("k")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("Get after demotion = %q, %v", got, err)
	}
	if !holds(t, hot, "k") {
		t.Fatal("read did not promote the block back to hot")
	}
	c := ti.Counters()
	if c.ColdHits != 1 || c.Promotions != 1 || c.Demotions != 1 {
		t.Fatalf("counters = %+v", c)
	}

	// The next read is a hot hit.
	if _, err := ti.Get("k"); err != nil {
		t.Fatal(err)
	}
	if c := ti.Counters(); c.HotHits != 1 || c.ColdHits != 1 {
		t.Fatalf("counters after re-read = %+v", c)
	}
}

func TestTieredGetRangePromotes(t *testing.T) {
	ti, hot, _ := newTestTiered(t, TierOptions{})
	if err := ti.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.DemoteNow(); err != nil {
		t.Fatal(err)
	}
	got, err := ti.GetRange("k", 3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("GetRange after demotion = %q, %v", got, err)
	}
	if !holds(t, hot, "k") {
		t.Fatal("range read did not promote the whole block")
	}
	// Past-end clamp still holds on the cold path.
	if _, err := ti.DemoteNow(); err != nil {
		t.Fatal(err)
	}
	got, err = ti.GetRange("k", 20, 5)
	if err != nil || len(got) != 0 {
		t.Fatalf("past-end GetRange = %q, %v", got, err)
	}
}

func TestTieredDemoteAfterSparesRecent(t *testing.T) {
	ti, hot, _ := newTestTiered(t, TierOptions{DemoteAfter: time.Hour})
	if err := ti.Put("old", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ti.Put("new", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Backdate "old" beyond the idle threshold.
	ti.mu.Lock()
	*ti.access["old"] = time.Now().Add(-2 * time.Hour)
	ti.mu.Unlock()
	n, err := ti.DemoteNow()
	if err != nil || n != 1 {
		t.Fatalf("DemoteNow = (%d, %v), want (1, nil)", n, err)
	}
	if holds(t, hot, "old") {
		t.Fatal("idle block not demoted")
	}
	if !holds(t, hot, "new") {
		t.Fatal("recent block demoted")
	}
}

func TestTieredMaxHotBytesEvictsLRU(t *testing.T) {
	ti, hot, _ := newTestTiered(t, TierOptions{MaxHotBytes: 256})
	val := make([]byte, 100)
	for i := 0; i < 4; i++ {
		if err := ti.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct access times
	}
	st := hot.Stats()
	if st.Bytes > 256 {
		t.Fatalf("hot tier over budget: %d bytes", st.Bytes)
	}
	// The most recent keys stay hot; the oldest were evicted.
	if !holds(t, hot, "k3") {
		t.Fatal("most recent block evicted")
	}
	if holds(t, hot, "k0") {
		t.Fatal("oldest block still hot")
	}
	// Evicted blocks remain readable (promotion pulls them back).
	got, err := ti.Get("k0")
	if err != nil || len(got) != 100 {
		t.Fatalf("evicted block unreadable: %d bytes, %v", len(got), err)
	}
}

func TestTieredStatsBreakdown(t *testing.T) {
	ti, _, _ := newTestTiered(t, TierOptions{})
	if err := ti.Put("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := ti.Put("b", []byte("678")); err != nil {
		t.Fatal(err)
	}
	st := ti.Stats()
	if st.Items != 2 || st.Bytes != 8 {
		t.Fatalf("logical stats = %+v", st)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Name != "hot" || st.Tiers[1].Name != "cold" {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	if st.Tiers[0].Items != 2 || st.Tiers[1].Items != 2 {
		t.Fatalf("write-through tier items = %+v", st.Tiers)
	}
	if _, err := ti.DemoteNow(); err != nil {
		t.Fatal(err)
	}
	st = ti.Stats()
	if st.Items != 2 || st.Bytes != 8 {
		t.Fatalf("logical stats changed across demotion: %+v", st)
	}
	if st.Tiers[0].Items != 0 || st.Tiers[1].Items != 2 {
		t.Fatalf("post-demotion tier items = %+v", st.Tiers)
	}
}

func TestTieredDeleteSpansTiers(t *testing.T) {
	ti, hot, cold := newTestTiered(t, TierOptions{})
	if err := ti.Put("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ti.Put("cold-only", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.DemoteNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Get("gone"); err != nil { // promote one back
		t.Fatal(err)
	}
	if err := ti.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if holds(t, hot, "gone") || holds(t, cold, "gone") {
		t.Fatal("Delete left a tier copy behind")
	}
	if err := ti.Delete("cold-only"); err != nil {
		t.Fatal(err)
	}
	if holds(t, cold, "cold-only") {
		t.Fatal("Delete missed the demoted copy")
	}
}

func TestTieredDeletePrefixCountsDistinct(t *testing.T) {
	ti, _, _ := newTestTiered(t, TierOptions{})
	for i := 0; i < 3; i++ {
		if err := ti.Put(fmt.Sprintf("p/%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// p/0 demoted+promoted lives in both tiers; it must count once.
	if _, err := ti.DemoteNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Get("p/0"); err != nil {
		t.Fatal(err)
	}
	n, err := ti.DeletePrefix("p/")
	if err != nil || n != 3 {
		t.Fatalf("DeletePrefix = (%d, %v), want (3, nil)", n, err)
	}
	if holds(t, ti, "p/1") {
		t.Fatal("prefixed key survived")
	}
}

func TestTieredPolicyLoop(t *testing.T) {
	ti, hot, cold := newTestTiered(t, TierOptions{Interval: 2 * time.Millisecond})
	if err := ti.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for holds(t, hot, "k") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if holds(t, hot, "k") {
		t.Fatal("policy loop never demoted the block")
	}
	if !holds(t, cold, "k") {
		t.Fatal("demoted block missing from cold")
	}
	got, err := ti.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}
