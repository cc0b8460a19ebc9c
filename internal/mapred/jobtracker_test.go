package mapred

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestEndedJobsAreForgotten: an ended job stays known for jobRetention,
// then the jobtracker forgets it: Status reports it unknown and no poll
// walks it, while a running job is kept however old. A map that outlives
// its forgotten job still has its output dropped by its tracker.
func TestEndedJobsAreForgotten(t *testing.T) {
	old := jobRetention
	jobRetention = 20 * time.Millisecond
	t.Cleanup(func() { jobRetention = old })
	jt := NewJobTracker(newMemFS(1024))
	ctx := context.Background()
	submit := func(maps string) uint64 {
		id, err := jt.Submit(ctx, JobConf{App: gatedApp, Args: map[string]string{"maps": maps}})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ended, running := submit("2"), submit("1")
	asgs, _ := jt.RequestTasks("tt-a", "", 2, 0) // submission order: both of ended's maps
	if len(asgs) != 2 || asgs[0].JobID != ended || asgs[1].JobID != ended {
		t.Fatalf("the first poll got %+v, want the first job's two maps", asgs)
	}
	if err := jt.Report(ended, taskMap, 0, "tt-a", true, ""); err != nil {
		t.Fatal(err)
	}
	if err := jt.Report(ended, taskMap, 1, "tt-a", false, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := jt.Report(ended, taskMap, 1, "tt-a", true, ""); err != nil {
		t.Fatal(err)
	}
	if st, err := jt.Status(ended); err != nil || st.State != JobSucceeded {
		t.Fatalf("Status of the ended job = %+v, %v; want it succeeded", st, err)
	}
	jt.mu.Lock()
	walked := slices.ContainsFunc(jt.running, func(j *job) bool { return j.id == ended })
	jt.mu.Unlock()
	if walked {
		t.Error("a poll still walks the ended job")
	}

	time.Sleep(2 * jobRetention)
	if _, gc := jt.RequestTasks("tt-a", "", 0, 0); !slices.Contains(gc, ended) {
		t.Errorf("tracker told to drop %v, want the ended job's outputs", gc)
	}
	if _, err := jt.Status(ended); err == nil {
		t.Error("Status of a job ended past the retention still answers")
	}
	if st, err := jt.Status(running); err != nil || st.State != JobRunning {
		t.Errorf("Status of the running job = %+v, %v; want it running", st, err)
	}
	jt.mu.Lock()
	kept := len(jt.jobs)
	jt.mu.Unlock()
	if kept != 1 {
		t.Errorf("the jobtracker keeps %d jobs, want the running one", kept)
	}

	// A map of the forgotten job reporting late: its output is dropped.
	if err := jt.Report(ended, taskMap, 1, "tt-b", true, ""); err == nil {
		t.Error("a report for a forgotten job was taken")
	}
	if _, gc := jt.RequestTasks("tt-b", "", 0, 0); !slices.Equal(gc, []uint64{ended}) {
		t.Errorf("the late map's tracker told to drop %v, want [%d]", gc, ended)
	}
}
