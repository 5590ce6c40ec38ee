#ifndef CHRONOQUEL_ENV_ENV_H_
#define CHRONOQUEL_ENV_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace tdb {

/// A file supporting positioned reads and writes.  Relation files are
/// page-structured on top of this interface.
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;

  /// Reads exactly `n` bytes at `offset` into `buf`.  Reading past EOF is
  /// an error.
  virtual Status Read(uint64_t offset, size_t n, uint8_t* buf) const = 0;

  /// Writes `n` bytes at `offset`, extending the file if needed.
  virtual Status Write(uint64_t offset, const uint8_t* data, size_t n) = 0;

  /// Current size in bytes.
  virtual Result<uint64_t> Size() const = 0;

  /// Shrinks or extends (zero filled) the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Flushes to stable storage (no-op for the in-memory env).
  virtual Status Sync() = 0;
};

/// File-system abstraction (RocksDB-style).  The Posix implementation backs
/// durable databases; the in-memory implementation backs tests and the
/// benchmark harness, keeping every experiment hermetic and fast while the
/// I/O *accounting* (the paper's metric) is done above this layer.
class Env {
 public:
  virtual ~Env() = default;

  virtual Result<std::unique_ptr<RandomRWFile>> OpenOrCreate(
      const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;

  /// Whole-file helpers used by the catalog.
  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;
  virtual Status WriteStringToFile(const std::string& path,
                                   const std::string& data) = 0;

  /// The shared Posix environment (never deleted).
  static Env* Default();
};

/// An Env that keeps all files in process memory.
class MemEnv : public Env {
 public:
  MemEnv() = default;

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
  friend class MemFile;
  struct FileData;  // env.cc

  /// Guards the file map and every file's writes.  Reads of a file's bytes
  /// take no lock (see FileData), so parallel scan workers read side by
  /// side.
  std::mutex mu_;
  // Shared so open handles survive DeleteFile, matching Posix semantics.
  std::map<std::string, std::shared_ptr<FileData>> files_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_ENV_ENV_H_
