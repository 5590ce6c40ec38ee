#ifndef CHRONOQUEL_STORAGE_HASH_FILE_H_
#define CHRONOQUEL_STORAGE_HASH_FILE_H_

#include <memory>

#include "storage/storage_file.h"

namespace tdb {

/// Static hashing with overflow chains — Ingres's `modify ... to hash`
/// organization.  The bucket count is fixed at creation from the expected
/// tuple count and the fill factor; every insert for a key goes to the
/// key's bucket chain, so all versions of a tuple share one chain and the
/// chain "ever lengthens" as the update count grows (the paper's central
/// performance effect).
class HashFile : public StorageFile {
 public:
  /// Formats a fresh file with `nbuckets` empty primary pages.
  static Result<std::unique_ptr<HashFile>> Create(std::unique_ptr<Pager> pager,
                                                  const RecordLayout& layout,
                                                  uint32_t nbuckets);

  /// Opens an existing file created with the same `nbuckets`.
  static Result<std::unique_ptr<HashFile>> Open(std::unique_ptr<Pager> pager,
                                                const RecordLayout& layout,
                                                uint32_t nbuckets);

  /// Bucket count for `ntuples` records at `fillfactor` percent loading —
  /// ceil(ntuples / (capacity * fillfactor/100)).
  static uint32_t BucketsFor(uint64_t ntuples, uint16_t record_size,
                             uint32_t usable,
                             int fillfactor);

  Organization org() const override { return Organization::kHash; }
  uint32_t nbuckets() const { return nbuckets_; }

  /// Bucket a key hashes to.  Integer (and time) keys use division hashing
  /// (value mod buckets) like Ingres, so dense key ranges spread evenly;
  /// other types hash their bytes first.
  uint32_t BucketOf(const Value& key) const {
    uint64_t h;
    if (key.is_integer()) {
      h = static_cast<uint64_t>(key.AsInt());
    } else if (key.type() == TypeId::kTime) {
      h = static_cast<uint64_t>(
          static_cast<uint32_t>(key.AsTime().seconds()));
    } else {
      h = key.Hash();
    }
    return static_cast<uint32_t>(h % nbuckets_);
  }

  Status Insert(const uint8_t* rec, size_t size, Tid* tid) override;
  Status UpdateInPlace(const Tid& tid, const uint8_t* rec,
                       size_t size) override;
  Status Erase(const Tid& tid) override;
  Result<std::unique_ptr<Cursor>> Scan() override;
  Result<std::unique_ptr<Cursor>> ScanKey(const Value& key) override;
  Result<std::vector<uint8_t>> Fetch(const Tid& tid) override;
  Pager* pager() override { return pager_.get(); }

  /// Category of a page: primary bucket pages are data, the rest overflow.
  IoCategory CategoryOf(uint32_t pno) const {
    return pno < nbuckets_ ? IoCategory::kData : IoCategory::kOverflow;
  }

  bool LinearScan() const override { return true; }
  IoCategory ScanCategory(uint32_t pno) const override {
    return CategoryOf(pno);
  }

 private:
  HashFile(std::unique_ptr<Pager> pager, const RecordLayout& layout,
           uint32_t nbuckets)
      : StorageFile(layout), pager_(std::move(pager)), nbuckets_(nbuckets) {}

  /// Bucket holding the stored keys equal to probe `key`: BucketOf(key),
  /// except that a numeric probe of another type than the key hashes as
  /// the stored key it equals.
  uint32_t ProbeBucket(const Value& key) const;

  std::unique_ptr<Pager> pager_;
  uint32_t nbuckets_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_HASH_FILE_H_
