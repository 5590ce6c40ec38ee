#include "env/fault_env.h"

#include <algorithm>

namespace tdb {

/// RandomRWFile wrapper routing every mutation through FaultEnv::NextOp.
class FaultFile : public RandomRWFile {
 public:
  FaultFile(FaultEnv* env, std::unique_ptr<RandomRWFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, uint8_t* buf) const override {
    if (env_->NextReadFails()) return FaultEnv::InjectedError();
    return base_->Read(offset, n, buf);
  }

  Status Write(uint64_t offset, const uint8_t* data, size_t n) override {
    FaultEnv::Decision d = env_->NextOp(/*is_write=*/true, /*is_sync=*/false);
    if (!d.fail) return base_->Write(offset, data, n);
    if (d.partial_bytes != UINT64_MAX && d.partial_bytes > 0) {
      size_t keep = static_cast<size_t>(
          std::min<uint64_t>(d.partial_bytes, static_cast<uint64_t>(n)));
      (void)base_->Write(offset, data, keep);  // the torn prefix lands
    }
    return FaultEnv::InjectedError();
  }

  Result<uint64_t> Size() const override { return base_->Size(); }

  Status Truncate(uint64_t size) override {
    FaultEnv::Decision d = env_->NextOp(/*is_write=*/false, /*is_sync=*/false,
                                        /*is_truncate=*/true);
    if (d.fail) return FaultEnv::InjectedError();
    return base_->Truncate(size);
  }

  Status Sync() override {
    FaultEnv::Decision d = env_->NextOp(/*is_write=*/false, /*is_sync=*/true);
    if (d.fail) return FaultEnv::InjectedError();
    return base_->Sync();
  }

 private:
  FaultEnv* env_;
  std::unique_ptr<RandomRWFile> base_;
};

void FaultEnv::CrashAt(uint64_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_ = k;
}

void FaultEnv::set_torn_write_bytes(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  torn_write_bytes_ = n;
}

void FaultEnv::FailSyncAt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_sync_at_ = n;
}

void FaultEnv::FailWriteShort(uint64_t n, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_write_at_ = n;
  fail_write_bytes_ = bytes;
}

void FaultEnv::FailTruncateAt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_truncate_at_ = n;
}

void FaultEnv::FailReadAt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_read_at_ = n;
}

void FaultEnv::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ops_ = syncs_ = writes_ = truncates_ = reads_ = 0;
  crash_at_ = UINT64_MAX;
  torn_write_bytes_ = UINT64_MAX;
  fail_sync_at_ = fail_write_at_ = fail_write_bytes_ = fail_truncate_at_ = 0;
  fail_read_at_ = 0;
  crashed_ = false;
}

uint64_t FaultEnv::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

uint64_t FaultEnv::sync_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

uint64_t FaultEnv::truncate_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncates_;
}

bool FaultEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

bool FaultEnv::NextReadFails() {
  std::lock_guard<std::mutex> lock(mu_);
  ++reads_;
  return fail_read_at_ != 0 && reads_ == fail_read_at_;
}

FaultEnv::Decision FaultEnv::NextOp(bool is_write, bool is_sync,
                                    bool is_truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t index = ops_++;
  if (is_write) ++writes_;
  if (is_sync) ++syncs_;
  if (is_truncate) ++truncates_;
  Decision d;
  if (index >= crash_at_) {
    d.fail = true;
    // Only the crashing operation itself may tear; once frozen, nothing
    // else reaches the base env at all.
    if (!crashed_ && is_write && torn_write_bytes_ != UINT64_MAX) {
      d.partial_bytes = torn_write_bytes_;
    }
    crashed_ = true;
    return d;
  }
  if (is_sync && fail_sync_at_ != 0 && syncs_ == fail_sync_at_) {
    d.fail = true;
    d.sync_failed = true;
    return d;
  }
  if (is_truncate && fail_truncate_at_ != 0 &&
      truncates_ == fail_truncate_at_) {
    d.fail = true;
    return d;
  }
  if (is_write && fail_write_at_ != 0 && writes_ == fail_write_at_) {
    d.fail = true;
    d.partial_bytes = fail_write_bytes_;
    return d;
  }
  return d;
}

Result<std::unique_ptr<RandomRWFile>> FaultEnv::OpenOrCreate(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Creating a file mutates the image; opening an existing one does not.
    if (crashed_ && !base_->FileExists(path)) return InjectedError();
  }
  TDB_ASSIGN_OR_RETURN(auto base, base_->OpenOrCreate(path));
  return std::unique_ptr<RandomRWFile>(new FaultFile(this, std::move(base)));
}

bool FaultEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultEnv::DeleteFile(const std::string& path) {
  Decision d = NextOp(/*is_write=*/false, /*is_sync=*/false);
  if (d.fail) return InjectedError();
  return base_->DeleteFile(path);
}

Status FaultEnv::RenameFile(const std::string& from, const std::string& to) {
  Decision d = NextOp(/*is_write=*/false, /*is_sync=*/false);
  if (d.fail) return InjectedError();
  return base_->RenameFile(from, to);
}

Status FaultEnv::CreateDirIfMissing(const std::string& path) {
  return base_->CreateDirIfMissing(path);
}

Result<std::vector<std::string>> FaultEnv::ListDir(const std::string& path) {
  return base_->ListDir(path);
}

Result<std::string> FaultEnv::ReadFileToString(const std::string& path) {
  return base_->ReadFileToString(path);
}

Status FaultEnv::WriteStringToFile(const std::string& path,
                                   const std::string& data) {
  Decision d = NextOp(/*is_write=*/true, /*is_sync=*/true);
  if (!d.fail) return base_->WriteStringToFile(path, data);
  if (d.sync_failed) {
    // The content landed; only the closing fsync reported an error.
    TDB_RETURN_NOT_OK(base_->WriteStringToFile(path, data));
  } else if (d.partial_bytes != UINT64_MAX) {
    // A torn whole-file rewrite leaves only the prefix, exactly as a crash
    // between truncate and the final write would.
    size_t keep = static_cast<size_t>(std::min<uint64_t>(
        d.partial_bytes, static_cast<uint64_t>(data.size())));
    (void)base_->WriteStringToFile(path, data.substr(0, keep));
  }
  return InjectedError();
}

}  // namespace tdb
