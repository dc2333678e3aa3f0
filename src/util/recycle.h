// Buffer recycling for arrays that are rewritten wholesale: overlay merges
// write the merged graph and sampler tables into the buffers the previous
// merge retired (docs/DYNAMIC_GRAPHS.md).
#ifndef SRC_UTIL_RECYCLE_H_
#define SRC_UTIL_RECYCLE_H_

#include <cstddef>
#include <vector>

namespace knightking {

// Resizes `v` to n elements whose contents the caller overwrites next. A
// buffer that is too small is dropped rather than grown, so resize neither
// copies stale contents into the new block nor doubles it; the replacement
// keeps 1/8 headroom so the next few slightly larger layouts (a graph that
// gains edges merge after merge) fit in place. Untouched headroom is never
// resident.
template <typename T>
void ResizeForOverwrite(std::vector<T>& v, size_t n) {
  if (n > v.capacity()) {
    std::vector<T>().swap(v);
    v.reserve(n + n / 8);
  }
  v.resize(n);
}

}  // namespace knightking

#endif  // SRC_UTIL_RECYCLE_H_
