package sim

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"cellcurtain/internal/carrier"
)

// ownerIndex maps the carriers' address space back to its carrier: every
// carrier prefix as one IPv4 range, sorted by first address, with no two
// ranges overlapping. A lookup is a binary search, where asking each
// carrier's OwnsAddr in turn walks every prefix of every carrier.
type ownerIndex []ownedRange

// ownedRange is one carrier prefix as the inclusive range [lo, hi] of
// IPv4 addresses.
type ownedRange struct {
	lo, hi uint32
	cn     *carrier.Network
	prefix netip.Prefix
}

// newOwnerIndex indexes the carriers' prefixes. It fails on a prefix that
// is not IPv4 and on two prefixes that overlap: with neither, at most one
// carrier owns an address, so the index answers as the first carrier
// whose OwnsAddr holds.
func newOwnerIndex(carriers []*carrier.Network) (ownerIndex, error) {
	var idx ownerIndex
	for _, cn := range carriers {
		for _, p := range cn.Prefixes() {
			if !p.Addr().Is4() {
				return nil, fmt.Errorf("carrier %s prefix %s is not IPv4", cn.Name, p)
			}
			lo := addr4(p.Masked().Addr())
			hi := uint32(uint64(lo) + 1<<(32-p.Bits()) - 1)
			idx = append(idx, ownedRange{lo: lo, hi: hi, cn: cn, prefix: p})
		}
	}
	slices.SortFunc(idx, func(a, b ownedRange) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(idx); i++ {
		if prev, r := idx[i-1], idx[i]; r.lo <= prev.hi {
			return nil, fmt.Errorf("carrier %s prefix %s overlaps carrier %s prefix %s",
				r.cn.Name, r.prefix, prev.cn.Name, prev.prefix)
		}
	}
	return idx, nil
}

// owner returns the carrier whose address space holds a, or nil.
func (idx ownerIndex) owner(a netip.Addr) *carrier.Network {
	if !a.Is4() {
		return nil
	}
	v := addr4(a)
	// idx[i-1] is the last range starting at or below v.
	i := sort.Search(len(idx), func(i int) bool { return idx[i].lo > v })
	if i == 0 || v > idx[i-1].hi {
		return nil
	}
	return idx[i-1].cn
}

func addr4(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
