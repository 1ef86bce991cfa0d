package mac3d

import (
	"errors"
	"testing"

	"mac3d/internal/cpu"
)

// fuzzOps bounds the accesses one fuzz input decodes to.
const fuzzOps = 64

// fuzzTrace decodes fuzz bytes into a two-thread trace over one 4KB
// block, four bytes per access: the op (load, store, atomic, fence)
// with thread and work gap, a 12-bit block offset, and a size of 1–16
// bytes.
func fuzzTrace(data []byte) (*TraceBuilder, error) {
	b, err := NewTraceBuilder(2, 1)
	if err != nil {
		return nil, err
	}
	base := (b.Alloc(8192) + 4095) &^ 4095
	for i := 0; i+4 <= len(data) && i < 4*fuzzOps; i += 4 {
		tid := int(data[i] >> 7)
		b.Work(tid, int(data[i]>>2&7))
		a := base + (uint64(data[i+1])<<8|uint64(data[i+2]))%4096
		size := int(data[i+3]%16) + 1
		switch data[i] & 3 {
		case 0:
			err = b.Load(tid, a, size)
		case 1:
			err = b.Store(tid, a, size)
		case 2:
			err = b.Atomic(tid, a, size)
		default:
			err = b.Fence(tid)
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// FuzzFrontendAudit runs fuzzed traces under every design with the
// lifecycle audit on. A run must end with a clean audit or an error,
// and never stall.
func FuzzFrontendAudit(f *testing.F) {
	// An 8B atomic at FLIT offset 12, and a 16B load at row offset
	// 0xfa behind an aligned load of the same line.
	f.Add([]byte{2, 0x00, 0x0c, 7})
	f.Add([]byte{0, 0x00, 0xc0, 7, 0x80, 0x00, 0xfa, 15})
	f.Add([]byte{0, 0x01, 0x00, 7, 1, 0x01, 0x08, 7, 3, 0, 0, 0, 0x82, 0x01, 0x10, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := fuzzTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Designs() {
			rep, err := RunTrace(RunOptions{Design: d, Audit: true}, b)
			var stall *cpu.StallError
			switch {
			case errors.As(err, &stall):
				t.Fatalf("%v stalled: %v", d, err)
			case err != nil:
				continue
			case !rep.Audit.Ok():
				t.Fatalf("%v audit: %v", d, rep.Audit.Violations)
			}
		}
	})
}
