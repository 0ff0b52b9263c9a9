package vm

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"
)

// PageMode selects the OS page-size policy, mirroring the
// configurations of the paper's Figure 13.
type PageMode uint8

const (
	// Mode4KOnly disables superpages entirely (THP off).
	Mode4KOnly PageMode = iota
	// ModeTHP enables transparent 2MB hugepages: a fault is backed by
	// a 2MB page when the region is THP-eligible and the buddy
	// allocator still has an aligned 2MB block; otherwise it falls
	// back to 4KB. Fragmentation (memhog) erodes availability.
	ModeTHP
	// ModeHugetlbfs2M models libhugetlbfs with 2MB pages: a pool of
	// superpages is reserved before fragmentation, so explicit
	// demands almost always succeed.
	ModeHugetlbfs2M
	// ModeHugetlbfs1G models libhugetlbfs with 1GB pages.
	ModeHugetlbfs1G
)

// String implements fmt.Stringer.
func (m PageMode) String() string {
	switch m {
	case Mode4KOnly:
		return "4KB-only"
	case ModeTHP:
		return "THP-2MB"
	case ModeHugetlbfs2M:
		return "hugetlbfs-2MB"
	case ModeHugetlbfs1G:
		return "hugetlbfs-1GB"
	default:
		return fmt.Sprintf("PageMode(%d)", uint8(m))
	}
}

// OSConfig parameterises the OS model for one address space.
type OSConfig struct {
	// PhysFrames is the size of physical memory in 4KB frames.
	PhysFrames uint64
	// Mode is the page-size policy.
	Mode PageMode
	// MemhogFraction is the fraction of physical frames a memhog-style
	// fragmenter allocates (as 4KB frames spread over randomly chosen
	// 2MB regions; see fragment) before the application starts: 0,
	// 0.25, 0.50, 0.75 in the paper.
	MemhogFraction float64
	// THPEligibility is the probability that a 2MB virtual region is
	// eligible for transparent hugepage backing (models VMA alignment,
	// khugepaged timing and partial population on the real system; the
	// paper's real-system traces show >50% coverage with THP on).
	THPEligibility float64
	// ReserveFraction is, for hugetlbfs modes, the fraction of
	// physical memory reserved as a superpage pool at boot.
	ReserveFraction float64
	// Seed drives the deterministic fragmentation and eligibility
	// draws.
	Seed int64
}

// DefaultOSConfig returns the configuration used for the paper's main
// results: THP on, no artificial fragmentation.
func DefaultOSConfig(physFrames uint64) OSConfig {
	return OSConfig{
		PhysFrames:      physFrames,
		Mode:            ModeTHP,
		THPEligibility:  0.62,
		ReserveFraction: 0.80,
		Seed:            1,
	}
}

// AddressSpace is one process's demand-paged virtual address space.
// Touch faults pages in on first access; the page-size decision follows
// the configured policy. Multiple address spaces may share one Buddy
// (multiprogrammed mixes contend for physical memory).
type AddressSpace struct {
	cfg   OSConfig
	buddy *Buddy
	table *PageTable
	rng   *rand.Rand

	// reserved* hold the hugetlbfs pool.
	reserved2M []mem.Frame
	reserved1G []mem.Frame

	// thpEligible caches the eligibility draw per 2MB virtual region.
	thpEligible map[mem.VAddr]bool

	// Resident footprint in bytes by page-size class.
	footprint [3]uint64
}

// NewAddressSpace builds an address space with its own physical memory
// of cfg.PhysFrames frames, at most MaxPhysFrames.
func NewAddressSpace(cfg OSConfig) (*AddressSpace, error) {
	if cfg.PhysFrames > MaxPhysFrames {
		return nil, fmt.Errorf("vm: %d frames exceeds the %d-frame physical memory limit", cfg.PhysFrames, uint64(MaxPhysFrames))
	}
	return NewAddressSpaceShared(cfg, NewBuddy(cfg.PhysFrames))
}

// NewAddressSpaceShared builds an address space over an existing
// (possibly shared) physical allocator. The hugetlbfs reservation and
// memhog fragmentation are applied per address space, in that order,
// mirroring boot-time reservation followed by fragmenting load.
func NewAddressSpaceShared(cfg OSConfig, buddy *Buddy) (*AddressSpace, error) {
	as := &AddressSpace{
		cfg:         cfg,
		buddy:       buddy,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		thpEligible: make(map[mem.VAddr]bool),
	}
	if err := as.reservePool(); err != nil {
		return nil, err
	}
	fragment(as.rng, buddy, cfg.PhysFrames, cfg.MemhogFraction)
	pt, err := NewPageTable(buddy.AllocFrame)
	if err != nil {
		return nil, err
	}
	as.table = pt
	return as, nil
}

// reservePool pre-allocates the hugetlbfs superpage pool, before
// fragmentation — exactly why libhugetlbfs achieves higher coverage
// than THP on a fragmented machine.
func (as *AddressSpace) reservePool() error {
	switch as.cfg.Mode {
	case ModeHugetlbfs2M:
		want := uint64(float64(as.cfg.PhysFrames) * as.cfg.ReserveFraction)
		for got := uint64(0); got+512 <= want; got += 512 {
			f, err := as.buddy.Alloc(9)
			if err != nil {
				break
			}
			as.reserved2M = append(as.reserved2M, f)
		}
	case ModeHugetlbfs1G:
		const framesPer1G = 1 << 18
		want := uint64(float64(as.cfg.PhysFrames) * as.cfg.ReserveFraction)
		for got := uint64(0); got+framesPer1G <= want; got += framesPer1G {
			f, err := as.buddy.Alloc(18)
			if err != nil {
				break
			}
			as.reserved1G = append(as.reserved1G, f)
		}
	}
	return nil
}

// Table exposes the page table (for the hardware walker and TEMPO's
// controller-side PTE reads).
func (as *AddressSpace) Table() *PageTable { return as.table }

// Buddy exposes the physical allocator.
func (as *AddressSpace) Buddy() *Buddy { return as.buddy }

// FootprintBytes returns resident bytes by page-size class
// (indexed by mem.PageSizeClass).
func (as *AddressSpace) FootprintBytes() [3]uint64 { return as.footprint }

// SuperpageFraction returns the fraction of the footprint backed by
// 2MB or 1GB pages (the x-axis of Figure 13). The 4KB-backed side is
// counted at 2MB-region granularity — a region holding any base pages
// contributes its whole span — which matches the steady-state RSS a
// real run reaches once the application has touched its footprint
// (short traces would otherwise under-count the 4KB side and make any
// granted superpage dominate the byte total). Those regions are the
// page table's level-1 table pages, one per 2MB region holding a 4KB
// mapping.
func (as *AddressSpace) SuperpageFraction() float64 {
	super := as.footprint[1] + as.footprint[2]
	frag := as.table.L1TablePages() * mem.Page2M.Bytes()
	if super+frag == 0 {
		return 0
	}
	return float64(super) / float64(super+frag)
}

// Touch ensures the page containing v is resident, faulting it in if
// needed, and returns its translation. The boolean reports whether a
// page fault occurred (first touch).
func (as *AddressSpace) Touch(v mem.VAddr) (Translation, bool, error) {
	if tr, ok := as.table.Lookup(v); ok {
		return tr, false, nil
	}
	tr, err := as.fault(v)
	if err != nil {
		return Translation{}, false, err
	}
	return tr, true, nil
}

// fault implements the page-size policy and installs the mapping.
func (as *AddressSpace) fault(v mem.VAddr) (Translation, error) {
	switch as.cfg.Mode {
	case ModeHugetlbfs1G:
		if len(as.reserved1G) > 0 {
			f := as.reserved1G[len(as.reserved1G)-1]
			as.reserved1G = as.reserved1G[:len(as.reserved1G)-1]
			if tr, err := as.install(v, mem.Page1G, f); err == nil {
				return tr, nil
			}
			as.reserved1G = append(as.reserved1G, f)
		}
	case ModeHugetlbfs2M:
		if len(as.reserved2M) > 0 {
			f := as.reserved2M[len(as.reserved2M)-1]
			as.reserved2M = as.reserved2M[:len(as.reserved2M)-1]
			if tr, err := as.install(v, mem.Page2M, f); err == nil {
				return tr, nil
			}
			as.reserved2M = append(as.reserved2M, f)
		}
	case ModeTHP:
		if as.regionTHPEligible(v) {
			if f, err := as.buddy.Alloc(9); err == nil {
				if tr, err := as.install(v, mem.Page2M, f); err == nil {
					return tr, nil
				}
				// Mapping collision cannot happen for a fresh fault,
				// but return the block rather than leak it.
				_ = as.buddy.Free(f)
			}
		}
	}
	f, err := as.buddy.AllocFrame()
	if err != nil {
		return Translation{}, err
	}
	return as.install(v, mem.Page4K, f)
}

func (as *AddressSpace) install(v mem.VAddr, c mem.PageSizeClass, f mem.Frame) (Translation, error) {
	if err := as.table.Map(v, c, f); err != nil {
		return Translation{}, err
	}
	as.footprint[c] += c.Bytes()
	return Translation{VBase: v.PageBase(c), Frame: f, Class: c}, nil
}

// regionTHPEligible draws (once, memoised) whether the 2MB virtual
// region containing v can be THP-backed.
func (as *AddressSpace) regionTHPEligible(v mem.VAddr) bool {
	base := v.PageBase(mem.Page2M)
	if e, ok := as.thpEligible[base]; ok {
		return e
	}
	e := as.rng.Float64() < as.cfg.THPEligibility
	as.thpEligible[base] = e
	return e
}
