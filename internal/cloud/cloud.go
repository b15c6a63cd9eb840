// Package cloud simulates the paper's experimental infrastructure: client
// VMs whose RAM, CPU speed and bandwidth are varied (VMware on the two lab
// machines), the fixed Azure-side VM that downloads and decompresses, and a
// Blob storage account with containers.
//
// The simulation is deterministic: codecs report modeled work (nanoseconds
// on the 2400 MHz reference core) and peak working-set size; a VM converts
// these into milliseconds by clock scaling plus a RAM-pressure (thrash)
// penalty, and models transfers as stream-conversion cost (CPU- and
// RAM-dependent — the paper's observation that "uploading ... not only
// depends on bandwidth but RAM and CPU is also significant") plus
// bandwidth-limited transfer.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

// VM describes one execution context.
type VM struct {
	Name          string
	RAMMB         int
	CPUMHz        int
	BandwidthMbps float64
}

// AzureVM is the fixed cloud-side VM from the paper's setup: "a VM at
// Windows Azure cloud with 2.1GHz AMD processor with 3.5GB RAM". Its
// bandwidth is the datacenter link to the storage account.
var AzureVM = VM{Name: "azure-a2", RAMMB: 3584, CPUMHz: 2100, BandwidthMbps: 100}

// Model constants.
const (
	// uploadLatencyMS / downloadLatencyMS are per-BLOB REST round-trip
	// overheads against the storage account.
	uploadLatencyMS   = 45.0
	downloadLatencyMS = 18.0
	// streamConvNSPerByte is the reference-core cost of converting a file
	// into the continuous stream the BLOB PUT requires (buffering, base64
	// framing in the 2014-era SDK, socket writes).
	streamConvNSPerByte = 220.0
	// thrashFactor scales the slowdown when an algorithm's working set
	// exceeds the VM's available RAM (paging on the VMware guests).
	thrashFactor = 4.0
	// osReservedMB approximates the guest OS's own working set; only the
	// remainder is available to the codec process.
	osReservedMB = 512
)

// cpuScale converts reference-core time to this VM's time.
func (vm VM) cpuScale() float64 {
	if vm.CPUMHz <= 0 {
		return 1
	}
	return float64(compress.ReferenceMHz) / float64(vm.CPUMHz)
}

// ramPressure returns the multiplicative slowdown from working-set overflow.
func (vm VM) ramPressure(peakMemBytes int) float64 {
	availBytes := (vm.RAMMB - osReservedMB) << 20
	if availBytes <= 0 {
		availBytes = 1 << 20
	}
	if peakMemBytes <= availBytes {
		return 1
	}
	over := float64(peakMemBytes-availBytes) / float64(availBytes)
	return 1 + float64(thrashFactor*over)
}

// ExecMS converts modeled codec stats into milliseconds on this VM.
func (vm VM) ExecMS(st compress.Stats) float64 {
	return float64(st.WorkNS) / 1e6 * vm.cpuScale() * vm.ramPressure(st.PeakMem)
}

// UploadMS models uploading a BLOB of the given size from this VM: the
// paper's stream-conversion step (CPU- and RAM-sensitive) plus REST latency
// plus bandwidth-limited transfer.
func (vm VM) UploadMS(sizeBytes int) float64 {
	conv := float64(streamConvNSPerByte * float64(sizeBytes) / 1e6 * vm.cpuScale())
	// Low-RAM guests pay extra buffering cost on the conversion: the SDK
	// stages the stream through memory the guest may not have.
	if vm.RAMMB < 2048 {
		conv = float64(conv * (1 + float64(0.5*float64(2048-vm.RAMMB)/2048)))
	}
	transfer := float64(float64(sizeBytes) * 8 / (vm.BandwidthMbps * 1e6) * 1e3)
	return uploadLatencyMS + conv + transfer
}

// DownloadMS models the cloud VM fetching a BLOB from the storage account.
func (vm VM) DownloadMS(sizeBytes int) float64 {
	conv := float64(streamConvNSPerByte / 2 * float64(sizeBytes) / 1e6 * vm.cpuScale())
	transfer := float64(float64(sizeBytes) * 8 / (vm.BandwidthMbps * 1e6) * 1e3)
	return downloadLatencyMS + conv + transfer
}

// String implements fmt.Stringer.
func (vm VM) String() string {
	return fmt.Sprintf("%s(ram=%dMB,cpu=%dMHz,bw=%.0fMbps)", vm.Name, vm.RAMMB, vm.CPUMHz, vm.BandwidthMbps)
}

// Grid returns the 32 client contexts of the paper's experiment design:
// 4 RAM levels × 4 CPU speeds × 2 bandwidth classes, spanning the two lab
// hosts (core-2-duo 2.0 GHz / 3 GB and i5 2.4 GHz / 6 GB) and the VMware
// guests carved out of them.
func Grid() []VM {
	rams := []int{1024, 2048, 3584, 6144}
	cpus := []int{1600, 2000, 2100, 2400}
	bands := []float64{2, 10}
	var out []VM
	for _, r := range rams {
		for _, c := range cpus {
			for _, b := range bands {
				out = append(out, VM{
					Name:          fmt.Sprintf("vm-r%d-c%d-b%g", r, c, b),
					RAMMB:         r,
					CPUMHz:        c,
					BandwidthMbps: b,
				})
			}
		}
	}
	return out
}

// Permanent storage failures. These are the non-retryable half of the
// store's error taxonomy: a missing container or BLOB will stay missing no
// matter how often a client retries, unlike an injected *TransientError.
var (
	// ErrNotFound reports a container or BLOB that does not exist (the REST
	// API's 404).
	ErrNotFound = errors.New("cloud: not found")
	// ErrContainerExists reports creation of an existing container (409).
	ErrContainerExists = errors.New("cloud: container already exists")
)

// Store is the blob-store surface the exchange pipeline operates on. It is
// satisfied by *BlobStore and by *FaultyStore, so the same pipeline runs
// against a reliable backend or a fault-injected one.
//
// GetRange is the ranged download (the REST API's Range header): bytes
// [off, off+n) of the blob, fewer when the blob ends first and none when
// off is at or past its end. A negative off or n is an error.
type Store interface {
	CreateContainer(name string) error
	Put(container, blob string, data []byte) error
	Get(container, blob string) ([]byte, error)
	GetRange(container, blob string, off, n int) ([]byte, error)
	Delete(container, blob string) error
}

// BlobStore is an in-memory stand-in for the Azure storage account (SAAS)
// holding uploaded files as BLOBs inside containers. It is safe for
// concurrent use.
type BlobStore struct {
	mu         sync.RWMutex
	containers map[string]map[string][]byte
}

// NewBlobStore returns an empty store.
func NewBlobStore() *BlobStore {
	return &BlobStore{containers: make(map[string]map[string][]byte)}
}

// CreateContainer makes a new container; creating an existing container is
// an error, mirroring the REST API's 409.
func (s *BlobStore) CreateContainer(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[name]; ok {
		return fmt.Errorf("%w: container %q", ErrContainerExists, name)
	}
	s.containers[name] = make(map[string][]byte)
	return nil
}

// Put uploads a BLOB, overwriting any previous version. The store keeps a
// copy, so the caller may reuse data.
func (s *BlobStore) Put(container, blob string, data []byte) error {
	return s.keep(container, blob, append([]byte(nil), data...))
}

// keep is Put without the copy: the store keeps data itself, so nothing
// may write to data afterwards. Unexported, so only the fleet hands a
// store a buffer this way: the version envelope it sealed.
func (s *BlobStore) keep(container, blob string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[container]
	if !ok {
		return fmt.Errorf("%w: container %q", ErrNotFound, container)
	}
	c[blob] = data
	return nil
}

// keep stores data as the blob on st without a copy where st is one of
// this package's in-memory stores. Any other Store, a type that embeds
// one included, gets Put, which keeps its own copy. Nothing may write to
// data afterwards.
func keep(st Store, container, blob string, data []byte) error {
	switch s := st.(type) {
	case *BlobStore:
		return s.keep(container, blob, data)
	case *FaultyStore:
		return s.keep(container, blob, data)
	}
	return st.Put(container, blob, data)
}

// Get downloads a BLOB.
func (s *BlobStore) Get(container, blob string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.containers[container]
	if !ok {
		return nil, fmt.Errorf("%w: container %q", ErrNotFound, container)
	}
	data, ok := c[blob]
	if !ok {
		return nil, fmt.Errorf("%w: blob %q in %q", ErrNotFound, blob, container)
	}
	return append([]byte(nil), data...), nil
}

// GetRange downloads bytes [off, off+n) of a BLOB, clipped to its end,
// copying only that span.
func (s *BlobStore) GetRange(container, blob string, off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("cloud: range [%d, +%d) of blob %q is negative", off, n, blob)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.containers[container]
	if !ok {
		return nil, fmt.Errorf("%w: container %q", ErrNotFound, container)
	}
	data, ok := c[blob]
	if !ok {
		return nil, fmt.Errorf("%w: blob %q in %q", ErrNotFound, blob, container)
	}
	lo := min(off, len(data))
	hi := lo + min(n, len(data)-lo)
	return append([]byte(nil), data[lo:hi]...), nil
}

// Delete removes a BLOB; deleting a missing BLOB is an error.
func (s *BlobStore) Delete(container, blob string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[container]
	if !ok {
		return fmt.Errorf("%w: container %q", ErrNotFound, container)
	}
	if _, ok := c[blob]; !ok {
		return fmt.Errorf("%w: blob %q in %q", ErrNotFound, blob, container)
	}
	delete(c, blob)
	return nil
}

// List returns the sorted BLOB names in a container.
func (s *BlobStore) List(container string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.containers[container]
	if !ok {
		return nil, fmt.Errorf("%w: container %q", ErrNotFound, container)
	}
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Size reports a BLOB's size without copying it.
func (s *BlobStore) Size(container, blob string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.containers[container]
	if !ok {
		return 0, fmt.Errorf("%w: container %q", ErrNotFound, container)
	}
	data, ok := c[blob]
	if !ok {
		return 0, fmt.Errorf("%w: blob %q in %q", ErrNotFound, blob, container)
	}
	return len(data), nil
}
