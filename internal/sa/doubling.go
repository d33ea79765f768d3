package sa

import "sort"

// SuffixArrayDoubling computes the suffix array by prefix doubling in
// O(n log² n) time. It is retained as an independent reference
// implementation for property-testing SA-IS; production callers should
// use SuffixArray.
func SuffixArrayDoubling(text []byte) []int32 {
	n := len(text)
	if n == 0 {
		return nil
	}
	sa := make([]int32, n)
	rank := make([]int32, n)
	tmp := make([]int32, n)
	for i := 0; i < n; i++ {
		sa[i] = int32(i)
		rank[i] = int32(text[i])
	}
	for k := 1; ; k *= 2 {
		key := func(i int32) (int32, int32) {
			second := int32(-1)
			if int(i)+k < n {
				second = rank[int(i)+k]
			}
			return rank[i], second
		}
		sort.Slice(sa, func(a, b int) bool {
			f1, s1 := key(sa[a])
			f2, s2 := key(sa[b])
			if f1 != f2 {
				return f1 < f2
			}
			return s1 < s2
		})
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			f1, s1 := key(sa[i-1])
			f2, s2 := key(sa[i])
			tmp[sa[i]] = tmp[sa[i-1]]
			if f1 != f2 || s1 != s2 {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[sa[n-1]]) == n-1 {
			break
		}
	}
	return sa
}
