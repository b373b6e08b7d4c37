package win32

import "ntdts/internal/ntsim"

// Heap objects. The simulation models heaps as bump allocators over the fake
// address space: allocations return addresses that resolve back to real Go
// buffers, so corrupted heap pointers fault exactly like wild pointers.

// HeapObject is a simulated process heap.
type HeapObject struct {
	allocs map[uint64][]byte
	space  *processAddr
}

// processAddr is a tiny adapter exposing the process address space to heap
// bookkeeping without leaking ntsim internals into callers.
type processAddr struct{ p *ntsim.Process }

func (pa *processAddr) mapBuf(b []byte) uint64 { return pa.p.Addr().MapBuf(b) }
func (pa *processAddr) release(addr uint64)    { pa.p.Addr().Release(addr) }

// GetProcessHeap returns the default heap handle, creating it on first use.
func (a *API) GetProcessHeap() Handle {
	a.syscall("GetProcessHeap", nil)
	if h, found := a.k.LookupNamed(defaultHeapKey(a.p.ID)); found {
		return h.(Handle)
	}
	heap := &HeapObject{allocs: make(map[uint64][]byte), space: &processAddr{p: a.p}}
	h := a.p.NewHandle(heap)
	a.k.RegisterNamed(defaultHeapKey(a.p.ID), h)
	return h
}

func defaultHeapKey(pid ntsim.PID) string {
	return "heap:default:" + itoa(uint32(pid))
}

// HeapCreate creates a private heap.
func (a *API) HeapCreate(options uint32, initialSize, maxSize uint32) Handle {
	raw := a.p.Raw(uint64(options), uint64(initialSize), uint64(maxSize))
	a.syscall("HeapCreate", raw)
	heap := &HeapObject{allocs: make(map[uint64][]byte), space: &processAddr{p: a.p}}
	a.ok()
	return a.p.NewHandle(heap)
}

// HeapDestroy tears a private heap down.
func (a *API) HeapDestroy(h Handle) bool {
	raw := a.p.Raw(uint64(h))
	a.syscall("HeapDestroy", raw)
	heap, okh := a.p.Resolve(ntsim.Handle(uint32(raw[0]))).(*HeapObject)
	if !okh {
		return a.fail(ntsim.ErrInvalidHandle)
	}
	for addr := range heap.allocs {
		heap.space.release(addr)
	}
	heap.allocs = make(map[uint64][]byte)
	a.p.CloseHandle(ntsim.Handle(uint32(raw[0])))
	return a.ok()
}

// HeapAlloc allocates size bytes from a heap, returning the block address
// (0 on failure).
func (a *API) HeapAlloc(h Handle, flags, size uint32) uint64 {
	raw := a.p.Raw(uint64(h), uint64(flags), uint64(size))
	a.syscall("HeapAlloc", raw)
	heap, okh := a.p.Resolve(ntsim.Handle(uint32(raw[0]))).(*HeapObject)
	if !okh {
		a.fail(ntsim.ErrInvalidHandle)
		return 0
	}
	size = uint32(raw[2])
	const heapLimit = 1 << 26 // 64 MiB: a corrupted huge size fails allocation
	if uint64(size) > heapLimit {
		a.fail(ntsim.ErrNotEnoughMemory)
		return 0
	}
	buf := make([]byte, size)
	addr := heap.space.mapBuf(buf)
	heap.allocs[addr] = buf
	a.ok()
	return addr
}

// HeapFree releases a block previously returned by HeapAlloc. Freeing a
// corrupted pointer faults, mirroring real heap corruption.
func (a *API) HeapFree(h Handle, flags uint32, addr uint64) bool {
	raw := a.p.Raw(uint64(h), uint64(flags), addr)
	a.syscall("HeapFree", raw)
	heap, okh := a.p.Resolve(ntsim.Handle(uint32(raw[0]))).(*HeapObject)
	if !okh {
		return a.fail(ntsim.ErrInvalidHandle)
	}
	addr = raw[2]
	if addr == 0 {
		return a.fail(ntsim.ErrInvalidParameter)
	}
	if _, found := heap.allocs[addr]; !found {
		return a.av() // freeing a wild pointer corrupts the heap
	}
	heap.space.release(addr)
	delete(heap.allocs, addr)
	return a.ok()
}

// HeapBuf returns the Go buffer behind a heap block address (helper for
// simulated programs; not itself an injected call).
func (a *API) HeapBuf(h Handle, addr uint64) ([]byte, bool) {
	heap, okh := a.p.Resolve(h).(*HeapObject)
	if !okh {
		return nil, false
	}
	buf, found := heap.allocs[addr]
	return buf, found
}

// VirtualAlloc reserves/commits a region, modeled as zero-filled memory
// that is allocated when a call first resolves its address.
func (a *API) VirtualAlloc(addrHint uint64, size uint32, allocType, protect uint32) uint64 {
	raw := a.p.Raw(addrHint, uint64(size), uint64(allocType), uint64(protect))
	a.syscall("VirtualAlloc", raw)
	size = uint32(raw[1])
	const vaLimit = 1 << 28
	if size == 0 || uint64(size) > vaLimit {
		a.fail(ntsim.ErrInvalidParameter)
		return 0
	}
	addr := a.p.Addr().MapZero(int(size))
	a.ok()
	return addr
}

// VirtualFree releases a region allocated by VirtualAlloc.
func (a *API) VirtualFree(addr uint64, size, freeType uint32) bool {
	raw := a.p.Raw(addr, uint64(size), uint64(freeType))
	a.syscall("VirtualFree", raw)
	if !a.p.Addr().IsBuf(raw[0]) {
		return a.fail(ntsim.ErrInvalidParameter)
	}
	a.p.Addr().Release(raw[0])
	return a.ok()
}

// LocalAlloc allocates movable/fixed local memory (modeled like HeapAlloc on
// an implicit heap).
func (a *API) LocalAlloc(flags, size uint32) uint64 {
	raw := a.p.Raw(uint64(flags), uint64(size))
	a.syscall("LocalAlloc", raw)
	size = uint32(raw[1])
	const limit = 1 << 26
	if uint64(size) > limit {
		a.fail(ntsim.ErrNotEnoughMemory)
		return 0
	}
	buf := make([]byte, size)
	addr := a.p.Addr().MapBuf(buf)
	a.ok()
	return addr
}

// LocalFree releases local memory, returning 0 on success (Win32 contract).
func (a *API) LocalFree(addr uint64) uint64 {
	raw := a.p.Raw(addr)
	a.syscall("LocalFree", raw)
	if _, res := a.buf(raw[0]); res != ptrResolved {
		a.fail(ntsim.ErrInvalidHandle)
		return raw[0]
	}
	a.p.Addr().Release(raw[0])
	a.ok()
	return 0
}

// GlobalAlloc mirrors LocalAlloc for the legacy global heap.
func (a *API) GlobalAlloc(flags, size uint32) uint64 {
	raw := a.p.Raw(uint64(flags), uint64(size))
	a.syscall("GlobalAlloc", raw)
	size = uint32(raw[1])
	const limit = 1 << 26
	if uint64(size) > limit {
		a.fail(ntsim.ErrNotEnoughMemory)
		return 0
	}
	buf := make([]byte, size)
	addr := a.p.Addr().MapBuf(buf)
	a.ok()
	return addr
}

// GlobalFree releases global memory, returning 0 on success.
func (a *API) GlobalFree(addr uint64) uint64 {
	raw := a.p.Raw(addr)
	a.syscall("GlobalFree", raw)
	if _, res := a.buf(raw[0]); res != ptrResolved {
		a.fail(ntsim.ErrInvalidHandle)
		return raw[0]
	}
	a.p.Addr().Release(raw[0])
	a.ok()
	return 0
}
