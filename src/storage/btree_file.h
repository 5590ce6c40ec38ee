#ifndef CHRONOQUEL_STORAGE_BTREE_FILE_H_
#define CHRONOQUEL_STORAGE_BTREE_FILE_H_

#include <memory>

#include "storage/storage_file.h"

namespace tdb {

class KeyProbe;

/// A B+-tree organization (`modify R to btree on k`) — the Section 6
/// extension the paper contemplates: an access method that "adapts to
/// dynamic growth better" than static hashing / ISAM, at the price of
/// "complex algorithms and significant overhead to maintain certain
/// structures as new records are added".
///
/// Layout: the root lives permanently at page 0 (so no metadata beyond the
/// organization tag is needed).  Internal nodes hold (separator key, child)
/// entries; leaves are bitmap-slotted record pages linked left-to-right.
/// When every record of a full leaf shares one key — the multi-version
/// pile-up of temporal relations — the leaf cannot split and grows a
/// per-leaf overflow chain instead, reproducing exactly the degradation the
/// paper predicts for B-trees on version-heavy data (see
/// `bench/ablation_btree`).
///
/// Record slots are stable under inserts into non-full leaves, but SPLITS
/// MOVE RECORDS (their Tids change); mutators that capture Tids before
/// triggering inserts must re-locate records afterwards (the DML executor
/// does).  Deletes clear slots without rebalancing.
class BtreeFile : public StorageFile {
 public:
  /// Formats a fresh file with an empty root leaf.
  static Result<std::unique_ptr<BtreeFile>> Create(
      std::unique_ptr<Pager> pager, const RecordLayout& layout);

  /// Opens an existing tree.
  static Result<std::unique_ptr<BtreeFile>> Open(std::unique_ptr<Pager> pager,
                                                 const RecordLayout& layout);

  Organization org() const override { return Organization::kBtree; }

  Status Insert(const uint8_t* rec, size_t size, Tid* tid) override;
  Status UpdateInPlace(const Tid& tid, const uint8_t* rec,
                       size_t size) override;
  Status Erase(const Tid& tid) override;

  /// All records in key order: leftmost leaf, then the leaf chain (each
  /// leaf's overflow pages included).  Internal nodes are not touched.
  Result<std::unique_ptr<Cursor>> Scan() override;

  /// Root-to-leaf descent, then the covering leaf and its overflow chain.
  Result<std::unique_ptr<Cursor>> ScanKey(const Value& key) override;

  /// Descent to the first covering leaf, then the leaf chain until the
  /// range is exhausted.
  Result<std::unique_ptr<Cursor>> ScanRange(
      const std::optional<Value>& lo, bool lo_inclusive,
      const std::optional<Value>& hi, bool hi_inclusive) override;

  Result<std::vector<uint8_t>> Fetch(const Tid& tid) override;
  Pager* pager() override { return pager_.get(); }

  /// Tree height (1 = root is a leaf); walks the leftmost path.
  Result<int> Height();

 private:
  BtreeFile(std::unique_ptr<Pager> pager, const RecordLayout& layout)
      : StorageFile(layout), pager_(std::move(pager)) {}

  /// Descends from the root to the leaf covering `key`.
  Result<uint32_t> FindLeaf(const KeyProbe& key);
  /// Leftmost leaf of the tree.
  Result<uint32_t> LeftmostLeaf();

  /// Recursive insert; on split of `pno`, returns the separator key bytes
  /// and the new right sibling for the caller to install in the parent.
  struct SplitResult {
    bool split = false;
    std::vector<uint8_t> sep_key;
    uint32_t right = 0;
  };
  Result<SplitResult> InsertRec(uint32_t pno, const uint8_t* rec, Tid* tid);

  /// Splits the full leaf `pno` (which has >1 distinct key), moving records
  /// >= the median distinct key to a fresh right sibling.
  Result<SplitResult> SplitLeaf(uint32_t pno);

  std::unique_ptr<Pager> pager_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_BTREE_FILE_H_
