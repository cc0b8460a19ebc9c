package cluster

import (
	"context"

	"blobseer/internal/blob"
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
