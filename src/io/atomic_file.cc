#include "io/atomic_file.h"

#include <cstdio>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace sky::io {

namespace {
AtomicWriteFaultHook g_fault_hook = nullptr;
}  // namespace

void SetAtomicWriteFaultHookForTest(AtomicWriteFaultHook hook) {
  g_fault_hook = hook;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  // The temporary must live in the target's directory: rename(2) is only
  // atomic within one filesystem.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + tmp + " for writing");
  }
  auto fail = [&](const std::string& what) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::Internal(what + " " + tmp);
  };
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    return fail("short write to");
  }
  if (std::fflush(f) != 0) {
    return fail("flush failed for");
  }
#ifndef _WIN32
  // Push the bytes to stable storage BEFORE the rename becomes visible;
  // otherwise a power loss could publish a zero-length file.
  if (fsync(fileno(f)) != 0) {
    return fail("fsync failed for");
  }
#endif
  if (g_fault_hook != nullptr) {
    Status injected = g_fault_hook(tmp);
    if (!injected.ok()) {
      std::fclose(f);
      std::remove(tmp.c_str());
      return injected;
    }
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("close failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::string& path,
                                  const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + what + " " + path);
  }
  // Sized from the end offset, then read in one call; a file that changes
  // size under the read is an error, not a silent truncation.
  std::string bytes;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  bool ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (ok) {
    bytes.resize(static_cast<size_t>(size));
    ok = std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
         std::fgetc(f) == EOF && !std::ferror(f);
  }
  std::fclose(f);
  if (!ok) return Status::Internal("error reading " + what + " " + path);
  return bytes;
}

}  // namespace sky::io
