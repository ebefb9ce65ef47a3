#include "common/fileio.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace lshap {

std::string TempWritePath(const std::string& path) { return path + ".tmp"; }

Status CommitTempFile(const std::string& path) {
  const std::string tmp = TempWritePath(path);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    return Status::Internal("cannot rename '" + tmp + "' to '" + path +
                            "': " + std::strerror(err));
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = TempWritePath(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open '" + tmp + "' for write");
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("write to '" + tmp + "' failed");
    }
  }
  return CommitTempFile(path);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string buf;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot stat '" + path + "'");
  buf.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(buf.data(), size);
  if (!in) return Status::Internal("short read on '" + path + "'");
  return buf;
}

}  // namespace lshap
