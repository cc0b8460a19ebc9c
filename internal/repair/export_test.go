package repair

import (
	"context"

	"blobseer/internal/blob"
)

// ScannedKeys returns the keys of the blocks a scan finds live.
func (e *Engine) ScannedKeys(ctx context.Context) (map[blob.BlockKey]bool, error) {
	blocks, _, err := e.collectBlocks(ctx)
	if err != nil {
		return nil, err
	}
	keys := make(map[blob.BlockKey]bool, len(blocks))
	for k := range blocks {
		keys[k] = true
	}
	return keys, nil
}
