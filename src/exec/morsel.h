#ifndef CHRONOQUEL_EXEC_MORSEL_H_
#define CHRONOQUEL_EXEC_MORSEL_H_

#include <cstdint>
#include <vector>

#include "storage/storage_file.h"

namespace tdb {

/// Batch currency of the vectorized executor: up to the morsel capacity of
/// raw record slices from ONE store of a relation, gathered by
/// VersionSource::NextBatch.  All entries of a morsel share `in_history`
/// (the gather is cut when the source transitions between primary and
/// history stores), so batch kernels can decode intervals uniformly.
struct Morsel : RecordBatch {
  bool in_history = false;
};

/// Selection vector: indexes of the morsel entries that passed the filters
/// so far.  uint16_t bounds the morsel capacity at 65535.
using SelVec = std::vector<uint16_t>;

/// Resets `sel` to the identity selection [0, n).
inline void FillIdentity(SelVec* sel, size_t n) {
  sel->resize(n);
  for (size_t i = 0; i < n; ++i) (*sel)[i] = static_cast<uint16_t>(i);
}

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_MORSEL_H_
