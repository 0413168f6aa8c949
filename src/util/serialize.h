// Versioned binary snapshots for the setup-persistence subsystem.
//
// The expensive half of the setup/solve split — low-stretch trees,
// incremental sparsify, greedy elimination, the dense bottom factor — is
// RHS-independent and deterministic, so it is worth shipping between
// processes: build once, Save(), and every later server restart Load()s the
// chain instead of rebuilding it (Persistence.LoadIsCheaperThanBuild holds
// the gap).
// Writer/Reader are the one encoding every serialized type shares, so the
// format has a single definition of truth:
//
//   * fixed-width scalars (u8..u64, f64) are written in native byte order;
//     the file header carries an endianness mark and a format version, and
//     Reader::check_header refuses a mismatch up front (InvalidArgument)
//     rather than decoding garbage;
//   * variable-length counts use LEB128 varints, so small graphs pay small
//     headers and 64-bit sizes never truncate;
//   * bulk data (edge endpoints, CSR arrays, factor entries) is written as
//     length-prefixed POD spans — one varint count, then the raw bytes —
//     which load as a single bounds-checked memcpy, or are read in place
//     through a Reader::PodView;
//   * Writer::to_file appends a lane-parallel FNV-1a-style checksum of
//     everything before it;
//     Reader::from_file verifies and strips it, so any byte corruption or
//     truncation surfaces as a clean Status instead of a crash or a
//     silently wrong chain.
//
// Reader errors are sticky: the first out-of-bounds or malformed read
// latches a non-OK status() and every later read returns zeros/empties, so
// decoding code reads straight through and checks status() once at the end.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace parsdd::serialize {

/// "PSDD" — identifies a parsdd snapshot regardless of payload type.
inline constexpr std::uint32_t kMagic = 0x50534444u;
/// Written as a native u16; reads back byte-swapped on the wrong endianness.
inline constexpr std::uint16_t kEndianMark = 0x0102u;
/// Bumped whenever the payload layout changes; readers refuse any version
/// they were not built for (see DESIGN.md, "Snapshot format").
/// v2: SddSolverOptions gained the Precision field (mixed-precision solve).
/// v3: dynamic updates — SolverSetup carries update_seq, the quality-monitor
///     iteration counters, and a per-component chain_stale marker, so a
///     snapshot taken after update() calls reloads bitwise.
/// The fp32-refined mode was later removed without a version bump: the v2
/// precision byte keeps its slot and is written as 0, and a snapshot whose
/// byte is 1 (built in that mode) is refused with InvalidArgument, asking
/// for a rebuild.
inline constexpr std::uint16_t kFormatVersion = 3;

/// 64-bit FNV-1a-style hash over a byte range (the snapshot trailer
/// checksum; also the mixer behind the service's SetupCache fingerprints).
/// Large inputs are folded four 64-bit lanes at a time so the multiply
/// chain pipelines — the digest is NOT byte-standard FNV-1a, it is this
/// format's own checksum (stable for a given kFormatVersion).
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

class Writer {
 public:
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u16(std::uint16_t v) { bytes(&v, sizeof(v)); }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void varint(std::uint64_t v);
  void bytes(const void* data, std::size_t size);

  /// varint count, then count raw elements.  T must be trivially copyable
  /// and padding-free (use parallel field arrays for padded structs, so the
  /// byte stream never contains indeterminate padding).
  template <typename T>
  void pod_span(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    varint(count);
    bytes(data, count * sizeof(T));
  }
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    pod_span(v.data(), v.size());
  }
  /// std::size_t vectors are widened to u64 so 32- and 64-bit builds agree.
  void size_vec(const std::vector<std::size_t>& v);

  /// Magic + version + endianness mark.  `version` is overridable only so
  /// tests can forge mismatched files.
  void header(std::uint16_t version = kFormatVersion);

  /// Writes buffer + checksum trailer to `path` via a unique tmp file,
  /// fsync, then rename: a crash mid-write never leaves a half-snapshot at
  /// the target name, and concurrent saves to one target cannot interleave.
  Status to_file(const std::string& path) const;

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Longest frame either side of the dist wire protocol will accept; a
/// length prefix beyond it means a desynchronized or hostile peer, and the
/// connection is torn down instead of allocating the claimed bytes.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Writes one length-prefixed frame (u32 payload size, then the payload)
/// to a stream socket, retrying short writes and EINTR.  Uses send() with
/// MSG_NOSIGNAL so a dead peer surfaces as Unavailable, never SIGPIPE.
Status write_frame(int fd, const std::uint8_t* data, std::size_t size);
inline Status write_frame(int fd, const Writer& w) {
  return write_frame(fd, w.buffer().data(), w.buffer().size());
}

/// Reads one frame written by write_frame.  Unavailable when the peer
/// closed the stream (EOF before or mid-frame) or on a read error;
/// InvalidArgument for a length prefix beyond kMaxFrameBytes.
StatusOr<std::vector<std::uint8_t>> read_frame(int fd);

class Reader {
 public:
  explicit Reader(std::vector<std::uint8_t> data)
      : buf_(std::move(data)), data_(buf_.data()), size_(buf_.size()) {}

  /// Maps (or, where mmap is unavailable, reads) the whole file, verifies
  /// and logically strips the checksum trailer.  NotFound when the file
  /// cannot be opened; InvalidArgument when it is shorter than a trailer
  /// or the checksum does not match.  Mapping instead of copying is what
  /// keeps warm-start load time at page-cache speed: the payload is
  /// decoded straight out of the mapping (perfbench: util.snapshot.load_s).
  static StatusOr<Reader> from_file(const std::string& path);

  /// Validates magic, endianness, and version; each failure is a distinct
  /// InvalidArgument message.
  Status check_header();

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  bool boolean();
  std::uint64_t varint();

  /// A Writer::pod_span read in place: a bounds-checked view of `size`
  /// elements' raw bytes, valid while the Reader lives.  Decoders that
  /// unpack parallel field arrays into structs (edges, elimination steps)
  /// read through it instead of copying each array into a temporary
  /// vector first; elements are memcpy'd out, since the bytes carry no
  /// alignment.
  template <typename T>
  struct PodView {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint8_t* bytes = nullptr;
    std::size_t size = 0;
    T operator[](std::size_t i) const {
      T v;
      std::memcpy(&v, bytes + i * sizeof(T), sizeof(T));
      return v;
    }
  };

  /// Reads a pod_span's count and consumes its bytes; an empty view on
  /// failure.
  template <typename T>
  PodView<T> pod_view() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t count = varint();
    if (!status_.ok()) return {};
    // The count itself bounds the view (and any allocation sized from it):
    // a corrupt length that claims more elements than the remaining bytes
    // is rejected here.
    if (count > (size_ - pos_) / sizeof(T)) {
      fail("element count " + std::to_string(count) +
           " exceeds remaining bytes");
      return {};
    }
    PodView<T> view{data_ + pos_, static_cast<std::size_t>(count)};
    pos_ += view.size * sizeof(T);
    return view;
  }

  template <typename T>
  std::vector<T> pod_vec() {
    PodView<T> view = pod_view<T>();
    std::vector<T> out(view.size);
    if (view.size != 0) {
      std::memcpy(out.data(), view.bytes, view.size * sizeof(T));
    }
    return out;
  }
  std::vector<std::size_t> size_vec();

  /// True once every payload byte has been consumed.
  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

  const Status& status() const { return status_; }
  /// Latches the first failure; later reads return zeros/empties.
  void fail(const std::string& message);

 private:
  // A read-only mmap of a snapshot file; unmapped on destruction.  Held by
  // unique_ptr so Reader stays movable with the view pointers unchanged.
  struct MappedFile {
    MappedFile(void* a, std::size_t l) : addr(a), len(l) {}
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;
    ~MappedFile();
    void* addr;
    std::size_t len;
  };

  Reader() = default;
  void raw(void* out, std::size_t size);

  // The payload view: data_/size_ reference either buf_ (in-memory or
  // fallback read path) or map_ (mmap path), with the checksum trailer
  // already excluded from size_.
  std::vector<std::uint8_t> buf_;
  std::unique_ptr<MappedFile> map_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  Status status_;
};

}  // namespace parsdd::serialize
