#ifndef CHRONOQUEL_ENV_FAULT_ENV_H_
#define CHRONOQUEL_ENV_FAULT_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"

namespace tdb {

/// An Env wrapper that injects storage failures, used to prove the journal's
/// crash story (tests/crash_recovery_test.cc) and exercisable from any test
/// that wants hostile I/O.
///
/// Every *mutating* operation that reaches the wrapped env — RandomRWFile
/// Write / Truncate / Sync, and env-level DeleteFile / RenameFile /
/// WriteStringToFile — consumes one operation index, counted from 0 in
/// execution order.  Reads never count, and fail only under FailReadAt, so
/// a test can always inspect the resulting file image.  WriteStringToFile
/// is one operation that counts as both a Write and a Sync, as the POSIX
/// env ends a whole-file rewrite with an fsync: sync_count() then equals
/// the fsyncs a PosixEnv would issue.
///
/// Five fault styles:
///   * CrashAt(k): operation k and everything after it fail with an
///     IOError and leave the wrapped env untouched — the file image is
///     frozen exactly as it was after operation k-1, like a power cut.
///     With set_torn_write_bytes(b), if operation k is a Write (or
///     WriteStringToFile) its first b bytes are applied before the freeze,
///     modeling a torn page / short sector write.
///   * FailSyncAt(n): the nth Sync (1-based) returns an IOError once;
///     state is not frozen — later operations succeed.  Models a transient
///     EIO from fsync.  A WriteStringToFile failing this way has written
///     its whole content first.
///   * FailWriteShort(n, b): the nth Write (1-based) persists only its
///     first b bytes and returns an IOError once.  Models ENOSPC-style
///     short writes.
///   * FailTruncateAt(n): the nth RandomRWFile Truncate (1-based) returns
///     an IOError once and leaves the file as it was.
///   * FailReadAt(n): the nth RandomRWFile Read (1-based, counted apart
///     from the operation index) returns an IOError once and fills
///     nothing.  Models a transient EIO on a page read.
///
/// The wrapper is intended for single-threaded tests but guards its counter
/// with a mutex so accidental cross-thread use stays well-defined.
class FaultEnv : public Env {
 public:
  explicit FaultEnv(Env* base) : base_(base) {}

  // --- fault script -------------------------------------------------------

  /// Freeze the file image at operation `k` (0-based; the k-th mutating
  /// operation is the first to fail).
  void CrashAt(uint64_t k);

  /// When the crashing operation is a write, apply its first `n` bytes.
  void set_torn_write_bytes(uint64_t n);

  /// Fail the `n`th Sync (1-based) once with an IOError.
  void FailSyncAt(uint64_t n);

  /// The `n`th Write (1-based) persists only `bytes` bytes and fails once.
  void FailWriteShort(uint64_t n, uint64_t bytes);

  /// Fail the `n`th Truncate (1-based) once with an IOError.
  void FailTruncateAt(uint64_t n);

  /// Fail the `n`th RandomRWFile Read (1-based) once with an IOError.
  void FailReadAt(uint64_t n);

  /// Clears the script and all counters (the wrapped env is untouched).
  void Reset();

  /// Mutating operations seen so far (failed ones included).
  uint64_t op_count() const;

  /// Syncs seen so far (failed ones included), WriteStringToFile's among
  /// them.
  uint64_t sync_count() const;

  /// Truncates seen so far (failed ones included).
  uint64_t truncate_count() const;

  /// True once CrashAt has triggered.
  bool crashed() const;

  // --- Env ----------------------------------------------------------------

  Result<std::unique_ptr<RandomRWFile>> OpenOrCreate(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Status WriteStringToFile(const std::string& path,
                           const std::string& data) override;

 private:
  friend class FaultFile;

  /// What one mutating operation is allowed to do.
  struct Decision {
    bool fail = false;
    /// For writes when failing: bytes to apply before reporting the fault
    /// (UINT64_MAX = none).
    uint64_t partial_bytes = UINT64_MAX;
    /// The failure is FailSyncAt's: a write-and-sync applies in full.
    bool sync_failed = false;
  };

  /// Consumes one operation index and scores it against the script.
  /// `is_write` enables torn/short-write semantics; `is_sync` enables
  /// FailSyncAt; `is_truncate` enables FailTruncateAt.
  Decision NextOp(bool is_write, bool is_sync, bool is_truncate = false);

  /// Counts one RandomRWFile Read; true when FailReadAt picks it.
  bool NextReadFails();

  static Status InjectedError() {
    return Status::IOError("injected fault: storage is unavailable");
  }

  Env* base_;
  mutable std::mutex mu_;
  uint64_t ops_ = 0;
  uint64_t syncs_ = 0;
  uint64_t writes_ = 0;
  uint64_t truncates_ = 0;
  uint64_t crash_at_ = UINT64_MAX;
  uint64_t torn_write_bytes_ = UINT64_MAX;
  uint64_t fail_sync_at_ = 0;    // 1-based; 0 = disabled
  uint64_t fail_write_at_ = 0;   // 1-based; 0 = disabled
  uint64_t fail_write_bytes_ = 0;
  uint64_t fail_truncate_at_ = 0;  // 1-based; 0 = disabled
  uint64_t reads_ = 0;
  uint64_t fail_read_at_ = 0;  // 1-based; 0 = disabled
  bool crashed_ = false;
};

}  // namespace tdb

#endif  // CHRONOQUEL_ENV_FAULT_ENV_H_
