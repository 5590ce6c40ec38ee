#ifndef CHRONOQUEL_STORAGE_ISAM_FILE_H_
#define CHRONOQUEL_STORAGE_ISAM_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/storage_file.h"

namespace tdb {

class KeyProbe;

/// Shape of an ISAM file's static directory, persisted in the catalog.
/// Disk layout of the file:
///   pages [0, data_pages)                     sorted primary data pages
///   pages [data_pages, data_pages+dir_total)  directory, level 0 first,
///                                             root (single page) last
///   pages beyond                              overflow pages
struct IsamMeta {
  uint32_t data_pages = 0;
  /// Pages per directory level, bottom (pointing at data pages) first.
  /// The last level always has exactly one page (the root).
  std::vector<uint32_t> level_counts;

  uint32_t dir_total() const {
    uint32_t t = 0;
    for (uint32_t c : level_counts) t += c;
    return t;
  }

  std::string Serialize() const;
  static Result<IsamMeta> Parse(std::string_view text);
};

/// Ingres-style ISAM: records sorted by key into fixed primary pages at
/// `modify` time, a static multi-level directory of (first key, page)
/// entries, and per-data-page overflow chains for records added afterwards.
/// Like hashing, the directory never reorganizes, so a growing relation
/// degrades via lengthening overflow chains (Section 6: "Reorganization
/// does not help ... because all versions of a tuple share the same key").
class IsamFile : public StorageFile {
 public:
  /// Directory entries per page: key bytes + 4-byte page number, packed
  /// with no page header (an i4 key gives the fanout of 128 implied by the
  /// paper's directory sizes).
  static uint32_t Fanout(const RecordLayout& layout,
                         uint32_t usable = kPageSize) {
    return usable / (layout.key_width + 4u);
  }

  /// Rebuilds the file from `records` (any order; sorted internally) at the
  /// given fill factor and returns the opened file; `*meta` receives the
  /// directory shape for the catalog.
  static Result<std::unique_ptr<IsamFile>> BulkLoad(
      std::unique_ptr<Pager> pager, const RecordLayout& layout,
      std::vector<std::vector<uint8_t>> records, int fillfactor,
      IsamMeta* meta);

  /// Opens an existing file with a known directory shape.
  static Result<std::unique_ptr<IsamFile>> Open(std::unique_ptr<Pager> pager,
                                                const RecordLayout& layout,
                                                const IsamMeta& meta);

  Organization org() const override { return Organization::kIsam; }
  const IsamMeta& meta() const { return meta_; }

  Status Insert(const uint8_t* rec, size_t size, Tid* tid) override;
  Status UpdateInPlace(const Tid& tid, const uint8_t* rec,
                       size_t size) override;
  Status Erase(const Tid& tid) override;

  /// Sequential scan: primary data pages in key order, each followed by its
  /// overflow chain.  Directory pages are never touched (a Quel sequential
  /// scan of an ISAM file reads data + overflow only).
  Result<std::unique_ptr<Cursor>> Scan() override;

  /// Directory traversal + full read of the covering page group (the data
  /// page and its overflow chain), filtered to records equal to `key`.
  /// Implemented as the degenerate range [key, key] so that bulk-loaded
  /// multi-version keys are always found.
  Result<std::unique_ptr<Cursor>> ScanKey(const Value& key) override;

  /// Range scan: directory traversal to the first covering data page, then
  /// data pages (and their chains) in key order until the range is passed.
  Result<std::unique_ptr<Cursor>> ScanRange(
      const std::optional<Value>& lo, bool lo_inclusive,
      const std::optional<Value>& hi, bool hi_inclusive) override;

  Result<std::vector<uint8_t>> Fetch(const Tid& tid) override;
  Pager* pager() override { return pager_.get(); }

  IoCategory ScanCategory(uint32_t pno) const override {
    return CategoryOf(pno);
  }
  IoCategory CategoryOf(uint32_t pno) const {
    if (pno < meta_.data_pages) return IoCategory::kData;
    if (pno < meta_.data_pages + meta_.dir_total()) {
      return IoCategory::kDirectory;
    }
    return IoCategory::kOverflow;
  }

  /// Resolves the primary data page whose key range covers `key` by walking
  /// the directory root-to-leaf (the reads are the query's *fixed* cost).
  Result<uint32_t> LookupDataPage(const KeyProbe& key);

 private:
  IsamFile(std::unique_ptr<Pager> pager, const RecordLayout& layout,
           IsamMeta meta)
      : StorageFile(layout), pager_(std::move(pager)), meta_(std::move(meta)) {}

  /// First page number of directory level `level` (0 = bottom).
  uint32_t LevelStart(size_t level) const;
  /// Number of entries across directory level `level`.
  uint32_t LevelEntries(size_t level) const;

  std::unique_ptr<Pager> pager_;
  IsamMeta meta_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_ISAM_FILE_H_
