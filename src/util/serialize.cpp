#include "util/serialize.h"

#include <atomic>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#define PARSDD_SERIALIZE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace parsdd::serialize {

namespace {

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  std::size_t i = 0;
  // Four independent lanes over 32-byte blocks: the FNV multiply is a serial
  // dependency chain, so a single lane caps throughput at one multiply
  // latency per word; four lanes keep the multiplier pipeline full, which is
  // what makes checksumming a multi-megabyte snapshot cheaper than reading
  // it from the page cache.  The lanes are plain locals, not an array, so
  // they stay in registers even in instrumented (sanitizer) builds.
  if (size >= 64) {
    std::uint64_t l0 = h;
    std::uint64_t l1 = h ^ 0x9e3779b97f4a7c15ull;
    std::uint64_t l2 = h ^ 0xc2b2ae3d27d4eb4full;
    std::uint64_t l3 = h ^ 0x165667b19e3779f9ull;
    for (; i + 32 <= size; i += 32) {
      l0 = (l0 ^ load_u64(p + i)) * kPrime;
      l1 = (l1 ^ load_u64(p + i + 8)) * kPrime;
      l2 = (l2 ^ load_u64(p + i + 16)) * kPrime;
      l3 = (l3 ^ load_u64(p + i + 24)) * kPrime;
    }
    h = l0;
    h = (h ^ l1) * kPrime;
    h = (h ^ l2) * kPrime;
    h = (h ^ l3) * kPrime;
  }
  for (; i + 8 <= size; i += 8) {
    h = (h ^ load_u64(p + i)) * kPrime;
  }
  for (; i < size; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void Writer::bytes(const void* data, std::size_t size) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void Writer::size_vec(const std::vector<std::size_t>& v) {
  varint(v.size());
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    // Same byte stream as the element loop below, minus the per-element
    // call overhead (CSR row offsets are the largest arrays in a snapshot).
    bytes(v.data(), v.size() * sizeof(std::uint64_t));
  } else {
    for (std::size_t x : v) u64(static_cast<std::uint64_t>(x));
  }
}

void Writer::header(std::uint16_t version) {
  u32(kMagic);
  u16(version);
  u16(kEndianMark);
}

Status Writer::to_file(const std::string& path) const {
  std::uint64_t checksum = fnv1a64(buf_.data(), buf_.size());
  // The scratch name must be unique per writer: concurrent saves to the
  // same target (e.g. two service threads snapshotting one handle) would
  // otherwise interleave writes in a shared tmp file and rename a corrupt
  // image into place.
  static std::atomic<std::uint64_t> tmp_counter{0};
  std::string tmp = path + ".tmp." +
#ifdef PARSDD_SERIALIZE_HAVE_MMAP
                    std::to_string(::getpid()) + "." +
#endif
                    std::to_string(tmp_counter.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    return InternalError("serialize: cannot open " + tmp + " for writing");
  }
  bool ok = std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size() &&
            std::fwrite(&checksum, 1, sizeof(checksum), f) == sizeof(checksum);
  // Flush user-space and kernel buffers before the rename: publishing the
  // name before the bytes are durable would let a power loss leave a
  // garbage file at the final path, which is the one thing the
  // tmp-then-rename dance exists to prevent.
  ok = ok && std::fflush(f) == 0;
#ifdef PARSDD_SERIALIZE_HAVE_MMAP
  ok = ok && ::fsync(::fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return InternalError("serialize: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("serialize: cannot rename " + tmp + " to " + path);
  }
  return OkStatus();
}

Reader::MappedFile::~MappedFile() {
#ifdef PARSDD_SERIALIZE_HAVE_MMAP
  ::munmap(addr, len);
#endif
}

namespace {

// Checksum-verifies a complete snapshot image and returns the payload size
// (the image minus its trailer), or an error Status.
StatusOr<std::size_t> verify_trailer(const std::uint8_t* data,
                                     std::size_t size,
                                     const std::string& path) {
  if (size < sizeof(std::uint64_t)) {
    return InvalidArgumentError("serialize: " + path +
                                " is too short to be a snapshot");
  }
  std::size_t payload = size - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, data + payload, sizeof(stored));
  if (fnv1a64(data, payload) != stored) {
    // The word-folded checksum is endian-dependent, so a foreign-byte-order
    // snapshot fails here before check_header can see the endian mark;
    // peek at the mark's bytes so the user hears "wrong byte order", not
    // "corrupt file".
    if (payload >= 8) {
      std::uint16_t mark;
      std::memcpy(&mark, data + 6, sizeof(mark));
      if (mark == static_cast<std::uint16_t>((kEndianMark >> 8) |
                                             (kEndianMark << 8))) {
        return InvalidArgumentError(
            "serialize: " + path +
            " was written on a foreign byte order (endianness mismatch)");
      }
    }
    return InvalidArgumentError("serialize: checksum mismatch in " + path +
                                " (truncated or corrupt snapshot)");
  }
  return payload;
}

}  // namespace

StatusOr<Reader> Reader::from_file(const std::string& path) {
#ifdef PARSDD_SERIALIZE_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return NotFoundError("serialize: cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return InternalError("serialize: cannot stat " + path);
  }
  std::size_t size = static_cast<std::size_t>(st.st_size);
  // Every byte is read at once (the checksum), so where the platform allows
  // it the whole mapping is populated in one call rather than a page fault
  // per page.
#ifdef MAP_POPULATE
  constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
  constexpr int kMapFlags = MAP_PRIVATE;
#endif
  void* addr =
      size > 0 ? ::mmap(nullptr, size, PROT_READ, kMapFlags, fd, 0) : nullptr;
  ::close(fd);
  if (size > 0 && addr != MAP_FAILED) {
    auto map = std::make_unique<MappedFile>(addr, size);
    const std::uint8_t* data = static_cast<const std::uint8_t*>(addr);
    StatusOr<std::size_t> payload = verify_trailer(data, size, path);
    if (!payload.ok()) return payload.status();
    Reader r;
    r.map_ = std::move(map);
    r.data_ = data;
    r.size_ = *payload;
    return r;
  }
  // size == 0 or mmap failure (exotic filesystem): fall through to stdio.
#endif
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return NotFoundError("serialize: cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (fsize < static_cast<long>(sizeof(std::uint64_t))) {
    std::fclose(f);
    return InvalidArgumentError("serialize: " + path +
                                " is too short to be a snapshot");
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(fsize));
  bool ok = std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!ok) {
    return InternalError("serialize: short read from " + path);
  }
  StatusOr<std::size_t> payload =
      verify_trailer(data.data(), data.size(), path);
  if (!payload.ok()) return payload.status();
  data.resize(*payload);
  return Reader(std::move(data));
}

Status Reader::check_header() {
  std::uint32_t magic = u32();
  std::uint16_t version = u16();
  std::uint16_t endian = u16();
  if (!status_.ok()) return status_;
  if (magic != kMagic) {
    fail("bad magic (not a parsdd snapshot)");
  } else if (endian != kEndianMark) {
    fail("endianness mismatch (snapshot written on a foreign byte order)");
  } else if (version != kFormatVersion) {
    fail("format version " + std::to_string(version) +
         " unsupported (this build reads version " +
         std::to_string(kFormatVersion) + ")");
  }
  return status_;
}

void Reader::raw(void* out, std::size_t size) {
  if (size == 0) return;  // empty spans may hand us a null destination
  if (!status_.ok() || size > size_ - pos_) {
    if (status_.ok()) fail("read past end of snapshot");
    std::memset(out, 0, size);
    return;
  }
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::uint8_t Reader::u8() {
  std::uint8_t v = 0;
  raw(&v, 1);
  return v;
}
std::uint16_t Reader::u16() {
  std::uint16_t v = 0;
  raw(&v, sizeof(v));
  return v;
}
std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof(v));
  return v;
}
std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof(v));
  return v;
}
double Reader::f64() {
  double v = 0;
  raw(&v, sizeof(v));
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (status_.ok() && v > 1) {
    fail("malformed boolean byte " + std::to_string(v));
  }
  return v == 1;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = u8();
    if (!status_.ok()) return 0;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte & 0x7e) != 0) break;  // overflows 64 bits
      return v;
    }
  }
  fail("malformed varint");
  return 0;
}

std::vector<std::size_t> Reader::size_vec() {
  std::uint64_t count = varint();
  std::vector<std::size_t> out;
  if (!status_.ok()) return out;
  if (count > remaining() / sizeof(std::uint64_t)) {
    fail("element count " + std::to_string(count) +
         " exceeds remaining bytes");
    return out;
  }
  out.resize(static_cast<std::size_t>(count));
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    raw(out.data(), out.size() * sizeof(std::uint64_t));
  } else {
    for (std::size_t& x : out) x = static_cast<std::size_t>(u64());
  }
  return out;
}

void Reader::fail(const std::string& message) {
  if (status_.ok()) {
    status_ = InvalidArgumentError("serialize: " + message);
  }
}

#ifdef PARSDD_SERIALIZE_HAVE_MMAP

namespace {

// Full-buffer send loop.  MSG_NOSIGNAL turns a write to a half-closed
// socket into EPIPE instead of terminating the process with SIGPIPE — the
// coordinator must observe a dead worker as a Status, never as a signal.
Status send_all(int fd, const void* data, std::size_t size) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::send(fd, p + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError("serialize: frame send failed (peer gone?)");
    }
    done += static_cast<std::size_t>(n);
  }
  return OkStatus();
}

// Full-buffer read loop; distinguishes clean EOF at a frame boundary
// (`*eof_at_start`) from truncation mid-frame.
Status recv_all(int fd, void* data, std::size_t size, bool* eof_at_start) {
  std::uint8_t* p = static_cast<std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError("serialize: frame read failed");
    }
    if (n == 0) {
      if (eof_at_start != nullptr) *eof_at_start = (done == 0);
      return UnavailableError(done == 0
                                  ? "serialize: peer closed the stream"
                                  : "serialize: peer closed mid-frame");
    }
    done += static_cast<std::size_t>(n);
  }
  return OkStatus();
}

}  // namespace

Status write_frame(int fd, const std::uint8_t* data, std::size_t size) {
  if (size > kMaxFrameBytes) {
    return InvalidArgumentError("serialize: frame of " + std::to_string(size) +
                                " bytes exceeds kMaxFrameBytes");
  }
  std::uint32_t len = static_cast<std::uint32_t>(size);
  PARSDD_RETURN_IF_ERROR(send_all(fd, &len, sizeof(len)));
  return send_all(fd, data, size);
}

StatusOr<std::vector<std::uint8_t>> read_frame(int fd) {
  std::uint32_t len = 0;
  PARSDD_RETURN_IF_ERROR(recv_all(fd, &len, sizeof(len), nullptr));
  if (len > kMaxFrameBytes) {
    return InvalidArgumentError("serialize: frame length prefix " +
                                std::to_string(len) +
                                " exceeds kMaxFrameBytes (desynchronized "
                                "stream?)");
  }
  std::vector<std::uint8_t> payload(len);
  if (len > 0) {
    PARSDD_RETURN_IF_ERROR(recv_all(fd, payload.data(), len, nullptr));
  }
  return payload;
}

#else  // !PARSDD_SERIALIZE_HAVE_MMAP

Status write_frame(int, const std::uint8_t*, std::size_t) {
  return InternalError("serialize: socket framing requires a POSIX platform");
}

StatusOr<std::vector<std::uint8_t>> read_frame(int) {
  return InternalError("serialize: socket framing requires a POSIX platform");
}

#endif  // PARSDD_SERIALIZE_HAVE_MMAP

}  // namespace parsdd::serialize
