package cluster

import (
	"context"

	"blobseer/internal/blob"
	"blobseer/internal/obs"
	"blobseer/internal/vmanager"
)

// HistoryOf reads blob id's published history a page at a time.
func HistoryOf(ctx context.Context, vm *vmanager.Client, id blob.ID) (*blob.History, error) {
	h := &blob.History{}
	_, err := vm.LatestSince(ctx, id, 0, blob.NoVersion, func(_ vmanager.Head, descs []blob.WriteDesc) error {
		return h.Extend(descs)
	})
	return h, err
}

// Planes returns the jobtracker's plane and each tracker's.
func (m *MapRed) Planes() (jt *obs.Plane, trackers []*obs.Plane) {
	for i := 0; i < m.Cfg.Trackers; i++ {
		trackers = append(trackers, m.node(trackerAddr(i)).Config().Plane)
	}
	return m.node(m.JTAddr).Config().Plane, trackers
}
