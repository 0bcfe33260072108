package experiments

import (
	"os"
	"os/exec"
	"testing"
)

func TestW1WireProtocolV2(t *testing.T) {
	// 2 MiB blob: the head-of-line row compares worst probe latency
	// against the v1 bound (250 ms transfer at 8 MB/s minus the 5 ms head
	// start), which must dominate scheduler jitter when the whole suite
	// runs under -race.
	res, err := RunW1(400, 2<<20)
	checkResult(t, res, err)
}

// TestW1V1BaselineFrozen pins row 1's computed v1 baseline to the bytes
// a v1 ORB leg put on the wire for the same calls, measured over netsim
// before v1 was retired. gob numbers types per process in first-use
// order, so encoded sizes depend on which types earlier tests touched;
// the check runs in a fresh child process, as the recorded legs did.
func TestW1V1BaselineFrozen(t *testing.T) {
	if os.Getenv("W1_FROZEN_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestW1V1BaselineFrozen$", "-test.count=1")
		cmd.Env = append(os.Environ(), "W1_FROZEN_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh-process check: %v\n%s", err, out)
		}
		return
	}
	for msgs, want := range map[int]uint64{400: 96812, 2000: 485612, 3000: 728612} {
		var got uint64
		for i := 0; i < msgs; i++ {
			n, err := v1Bytes("w1", "echo", w1SmallCall(i), w1SmallCall(i))
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		if got != want {
			t.Errorf("v1 baseline for %d calls = %d B, measured v1 leg was %d B", msgs, got, want)
		}
	}
}
