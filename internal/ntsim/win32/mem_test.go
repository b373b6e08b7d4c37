package win32

import (
	"runtime"
	"testing"

	"ntdts/internal/ntsim"
)

// TestVirtualAllocReadsZeroAndKeepsWrites checks that a VirtualAlloc
// region resolves to zero-filled bytes of the requested size, and that a
// write through the address is still there when it resolves again.
func TestVirtualAllocReadsZeroAndKeepsWrites(t *testing.T) {
	k := ntsim.NewKernel()
	spawnMain(t, k, func(a *API) uint32 {
		va := a.VirtualAlloc(0, 4096, 0, 0)
		if va == 0 {
			t.Error("VirtualAlloc failed")
			return 1
		}
		mem, res := a.buf(va)
		if res != ptrResolved || len(mem) != 4096 {
			t.Errorf("VirtualAlloc region resolves to %d bytes (%v), want 4096", len(mem), res)
			return 1
		}
		for i, b := range mem {
			if b != 0 {
				t.Errorf("byte %d = %#x, want zero fill", i, b)
				return 1
			}
		}
		mem[0], mem[4095] = 0x5A, 0xA5
		again, _ := a.buf(va)
		if again[0] != 0x5A || again[4095] != 0xA5 {
			t.Error("write through the VirtualAlloc address did not persist")
		}
		if !a.VirtualFree(va, 0, 0) {
			t.Errorf("VirtualFree after use failed: %v", a.p.LastError())
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

// TestVirtualFreeUntouchedAllocatesNothing checks that freeing a region no
// call ever resolved succeeds without allocating its bytes, and that the
// address stops resolving afterwards.
func TestVirtualFreeUntouchedAllocatesNothing(t *testing.T) {
	k := ntsim.NewKernel()
	const size = 16 << 20
	var ms runtime.MemStats
	spawnMain(t, k, func(a *API) uint32 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		va := a.VirtualAlloc(0, size, 0, 0)
		freed := a.VirtualFree(va, 0, 0)
		runtime.ReadMemStats(&ms)
		if !freed {
			t.Errorf("VirtualFree of an untouched region failed: %v", a.p.LastError())
		}
		if got := ms.TotalAlloc - before; got >= size/16 {
			t.Errorf("VirtualAlloc+VirtualFree of %d untouched bytes allocated %d", size, got)
		}
		if _, res := a.buf(va); res != ptrWild {
			t.Errorf("freed region resolves (%v), want unmapped", res)
		}
		if a.VirtualFree(va, 0, 0) || a.p.LastError() != ntsim.ErrInvalidParameter {
			t.Errorf("second VirtualFree: err %v, want ERROR_INVALID_PARAMETER", a.p.LastError())
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

// TestCorruptedVirtualAddresses checks the consequences of corrupted
// region addresses: VirtualFree rejects a zeroed, all-ones or flipped
// address with ERROR_INVALID_PARAMETER and leaves the region mapped, and
// a buffer parameter corrupted the same way faults the caller.
func TestCorruptedVirtualAddresses(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(uint64) uint64
		nullErr bool // WriteFile sees NULL: ERROR_NOACCESS, not an AV
	}{
		{"zero", func(uint64) uint64 { return 0 }, true},
		{"ones", func(uint64) uint64 { return 0xFFFFFFFF }, false},
		{"flip", func(v uint64) uint64 { return uint64(^uint32(v)) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := ntsim.NewKernel()
			var va uint64
			k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, _, fn string, raw []uint64) {
				switch fn {
				case "VirtualFree":
					raw[0] = c.corrupt(raw[0])
				case "WriteFile":
					raw[1] = c.corrupt(va)
				}
			}})
			p := spawnMain(t, k, func(a *API) uint32 {
				va = a.VirtualAlloc(0, 4096, 0, 0)
				if a.VirtualFree(va, 0, 0) || a.p.LastError() != ntsim.ErrInvalidParameter {
					t.Errorf("corrupted VirtualFree: err %v, want ERROR_INVALID_PARAMETER", a.p.LastError())
				}
				if _, res := a.buf(va); res != ptrResolved {
					t.Errorf("region unmapped by a rejected VirtualFree (%v)", res)
				}
				h := a.CreateFileA(`C:\out`, GenericWrite, 0, CreateAlways, 0)
				var n uint32
				if a.WriteFile(h, make([]byte, 8), 8, &n) || a.p.LastError() != ntsim.ErrNoaccess {
					t.Errorf("WriteFile from a NULL buffer: err %v, want ERROR_NOACCESS", a.p.LastError())
				}
				return 0
			})
			runAll(t, k)
			checkNoPanics(t, k)
			want := uint32(0)
			if !c.nullErr {
				want = ntsim.ExitAccessViolation
			}
			if p.ExitCode() != want {
				t.Fatalf("exit %#x, want %#x", p.ExitCode(), want)
			}
		})
	}
}
