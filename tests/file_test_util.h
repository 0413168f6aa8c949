// Shared file fixtures for the persistence-adjacent and subprocess tests:
// whole-file read/write, a unique, self-cleaning temp path, and the path of
// the running binary.  One definition, so a
// fix (e.g. to error handling) reaches every test that shuttles bytes
// through disk.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace parsdd::test_util {

// Unique-per-test temp path, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "parsdd_" + tag + "_" +
              std::to_string(::getpid()) + ".bin") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> data;
  if (!f) return data;
  std::fseek(f, 0, SEEK_END);
  data.resize(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

// Path of the running test binary, for tests that re-execute themselves
// under a different environment (pool size, SIMD backend).
inline std::string self_exe() {
  char buf[4096];
  ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(len, 0);
  buf[len > 0 ? len : 0] = '\0';
  return buf;
}

inline void write_bytes(const std::string& path,
                        const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

}  // namespace parsdd::test_util
