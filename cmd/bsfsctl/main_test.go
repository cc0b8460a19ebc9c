package main

import (
	"context"
	"strings"
	"testing"
)

// TestVMCommandsRetired: `vm status` and `vm snapshot` are gone — the
// log compacts itself and its shape is on /metrics — so "vm" is an
// unknown command.
func TestVMCommandsRetired(t *testing.T) {
	for _, sub := range []string{"status", "snapshot"} {
		err := run(context.Background(), nil, "vm", []string{sub})
		if err == nil || !strings.Contains(err.Error(), `unknown command "vm"`) {
			t.Errorf("vm %s = %v, want an unknown command", sub, err)
		}
	}
}
