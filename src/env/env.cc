#include "env/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "util/stringx.h"

namespace tdb {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(op + " '" + path + "': " + std::strerror(errno));
}

/// Positioned-I/O file over a POSIX descriptor.
class PosixFile : public RandomRWFile {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, uint8_t* buf) const override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, buf + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread", path_);
      }
      if (r == 0) {
        return Status::IOError("short read past EOF in '" + path_ + "'");
      }
      done += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Status Write(uint64_t offset, const uint8_t* data, size_t n) override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pwrite(fd_, data + done, n - done,
                           static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite", path_);
      }
      done += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat", path_);
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate", path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<RandomRWFile>> OpenOrCreate(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    return std::unique_ptr<RandomRWFile>(new PosixFile(fd, path));
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from);
    }
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir", path);
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) return ErrnoStatus("opendir", path);
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name != "." && name != "..") names.push_back(std::move(name));
    }
    ::closedir(d);
    return names;
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    TDB_ASSIGN_OR_RETURN(auto file, OpenOrCreate(path));
    TDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
    std::string out(size, '\0');
    if (size > 0) {
      TDB_RETURN_NOT_OK(
          file->Read(0, size, reinterpret_cast<uint8_t*>(out.data())));
    }
    return out;
  }

  Status WriteStringToFile(const std::string& path,
                           const std::string& data) override {
    TDB_ASSIGN_OR_RETURN(auto file, OpenOrCreate(path));
    TDB_RETURN_NOT_OK(file->Truncate(0));
    TDB_RETURN_NOT_OK(file->Write(
        0, reinterpret_cast<const uint8_t*>(data.data()), data.size()));
    return file->Sync();
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

/// One in-memory file.  Its bytes live in fixed-size blocks that never
/// move: growth adds blocks, and a shrunk file keeps its blocks until the
/// file itself is gone.  So a read copies without a lock: it loads the
/// size, and every block below that size was published, by a release
/// store, before the size that covers it.  Writers hold the env's mutex.
/// As with a real file, only a read that races a write of the same bytes
/// can see a partial write.
struct MemEnv::FileData {
  static constexpr uint64_t kBlockBytes = 16 << 10;
  static constexpr size_t kBlocksPerChunk = 1024;
  static constexpr size_t kChunks = 256;  // up to 4 GiB per file
  using Chunk = std::array<std::atomic<uint8_t*>, kBlocksPerChunk>;

  std::atomic<uint64_t> size{0};
  std::array<std::atomic<Chunk*>, kChunks> chunks{};
  // Written under the env's mutex only.
  uint64_t blocks = 0;  // blocks allocated
  std::vector<std::unique_ptr<Chunk>> owned_chunks;
  std::vector<std::unique_ptr<uint8_t[]>> owned_blocks;

  uint8_t* Block(uint64_t b) const {
    return (*chunks[b / kBlocksPerChunk].load(std::memory_order_acquire))
        [b % kBlocksPerChunk]
            .load(std::memory_order_acquire);
  }

  /// Copies [offset, offset + n) out; the caller checked the size.
  void CopyOut(uint64_t offset, size_t n, uint8_t* out) const {
    while (n > 0) {
      const uint64_t in_block = offset % kBlockBytes;
      const size_t len =
          static_cast<size_t>(std::min<uint64_t>(n, kBlockBytes - in_block));
      std::memcpy(out, Block(offset / kBlockBytes) + in_block, len);
      offset += len;
      out += len;
      n -= len;
    }
  }

  Status Read(uint64_t offset, size_t n, uint8_t* out) const {
    if (offset + n > size.load(std::memory_order_acquire)) {
      return Status::IOError("read past EOF in memory file");
    }
    CopyOut(offset, n, out);
    return Status::OK();
  }

  // The rest require the env's mutex.

  /// Sets the size, zero-filling the bytes a growth exposes.
  Status Resize(uint64_t n) {
    const uint64_t old = size.load(std::memory_order_relaxed);
    if (n > old) {
      if (n > kBlockBytes * kBlocksPerChunk * kChunks) {
        return Status::IOError("memory file too large");
      }
      while (blocks * kBlockBytes < n) AddBlock();
      for (uint64_t at = old; at < n;) {
        const uint64_t in_block = at % kBlockBytes;
        const uint64_t len = std::min(n - at, kBlockBytes - in_block);
        std::memset(Block(at / kBlockBytes) + in_block, 0, len);
        at += len;
      }
    }
    size.store(n, std::memory_order_release);
    return Status::OK();
  }

  Status Write(uint64_t offset, const uint8_t* data, size_t n) {
    if (offset + n > size.load(std::memory_order_relaxed)) {
      TDB_RETURN_NOT_OK(Resize(offset + n));
    }
    while (n > 0) {
      const uint64_t in_block = offset % kBlockBytes;
      const size_t len =
          static_cast<size_t>(std::min<uint64_t>(n, kBlockBytes - in_block));
      std::memcpy(Block(offset / kBlockBytes) + in_block, data, len);
      offset += len;
      data += len;
      n -= len;
    }
    return Status::OK();
  }

 private:
  void AddBlock() {
    const size_t c = blocks / kBlocksPerChunk;
    if (chunks[c].load(std::memory_order_relaxed) == nullptr) {
      owned_chunks.push_back(std::make_unique<Chunk>());  // all null
      chunks[c].store(owned_chunks.back().get(), std::memory_order_release);
    }
    // Left uninitialized: Resize zero-fills each byte it exposes.
    owned_blocks.emplace_back(new uint8_t[kBlockBytes]);
    (*chunks[c].load(std::memory_order_relaxed))[blocks % kBlocksPerChunk]
        .store(owned_blocks.back().get(), std::memory_order_release);
    ++blocks;
  }
};

/// An open handle on an in-memory file.
class MemFile : public RandomRWFile {
 public:
  MemFile(std::mutex* mu, std::shared_ptr<MemEnv::FileData> data)
      : mu_(mu), data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, uint8_t* buf) const override {
    return data_->Read(offset, n, buf);
  }

  Status Write(uint64_t offset, const uint8_t* data, size_t n) override {
    std::lock_guard<std::mutex> lock(*mu_);
    return data_->Write(offset, data, n);
  }

  Result<uint64_t> Size() const override {
    return data_->size.load(std::memory_order_acquire);
  }

  Status Truncate(uint64_t size) override {
    std::lock_guard<std::mutex> lock(*mu_);
    return data_->Resize(size);
  }

  Status Sync() override { return Status::OK(); }

 private:
  std::mutex* mu_;  // the env's
  std::shared_ptr<MemEnv::FileData> data_;
};

Result<std::unique_ptr<RandomRWFile>> MemEnv::OpenOrCreate(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    it = files_.emplace(path, std::make_shared<FileData>()).first;
  }
  return std::unique_ptr<RandomRWFile>(new MemFile(&mu_, it->second));
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status MemEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("no memory file '" + path + "'");
  }
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("no memory file '" + from + "'");
  }
  files_[to] = it->second;
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::CreateDirIfMissing(const std::string&) { return Status::OK(); }

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::vector<std::string> names;
  for (const auto& [name, _] : files_) {
    if (StartsWith(name, prefix)) {
      std::string rest = name.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.push_back(rest);
    }
  }
  return names;
}

Result<std::string> MemEnv::ReadFileToString(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no memory file '" + path + "'");
  }
  const FileData& file = *it->second;
  std::string out(file.size.load(std::memory_order_relaxed), '\0');
  file.CopyOut(0, out.size(), reinterpret_cast<uint8_t*>(out.data()));
  return out;
}

Status MemEnv::WriteStringToFile(const std::string& path,
                                 const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto file = std::make_shared<FileData>();
  TDB_RETURN_NOT_OK(file->Write(
      0, reinterpret_cast<const uint8_t*>(data.data()), data.size()));
  files_[path] = std::move(file);
  return Status::OK();
}

}  // namespace tdb
