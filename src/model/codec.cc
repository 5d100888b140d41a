#include "model/codec.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"

namespace srda {
namespace model {
namespace {

// ---- Text codec ("srda-model 2") ----------------------------------------

constexpr char kTextMagic[] = "srda-model";
constexpr int kTextVersion = 2;

const char* HeadName(HeadKind head) {
  SRDA_CHECK(head == HeadKind::kCentroid) << "unknown classifier head";
  return "centroid";
}

void WriteMatrixRows(std::ofstream* out, const Matrix& m) {
  for (int i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (int j = 0; j < m.cols(); ++j) {
      *out << row[j] << (j + 1 == m.cols() ? '\n' : ' ');
    }
  }
}

void ReadMatrixRows(std::ifstream* in, Matrix* m, const std::string& path,
                    const char* what) {
  for (int i = 0; i < m->rows(); ++i) {
    for (int j = 0; j < m->cols(); ++j) {
      SRDA_CHECK(static_cast<bool>(*in >> (*m)(i, j)))
          << path << ": truncated " << what;
    }
  }
}

// Reads "key value" asserting the expected key, so a truncated or reordered
// header fails with the key name instead of a type error downstream.
template <typename T>
T ReadKeyed(std::ifstream* in, const std::string& path, const char* key) {
  std::string actual;
  T value{};
  SRDA_CHECK(static_cast<bool>(*in >> actual >> value) && actual == key)
      << path << ": expected '" << key << " <value>' in model header";
  return value;
}

// ---- Binary codec ("SRDM" v1) -------------------------------------------
//
// Fixed-size header (field by field, native layout), then 64-byte-aligned
// sections at the offsets the header records. file_size is stored so a
// truncated copy is detected before any section is touched.

constexpr char kBinaryMagic[4] = {'S', 'R', 'D', 'M'};
constexpr int32_t kBinaryVersion = 1;
constexpr int64_t kSectionAlign = 64;
constexpr int kMaxTrainerLen = 4096;

struct BinaryHeader {
  int32_t version = 0;
  int32_t input_dim = 0;
  int32_t output_dim = 0;
  int32_t num_classes = 0;
  int32_t head_kind = 0;
  int32_t trainer_len = 0;
  double alpha = 0.0;
  uint64_t seed = 0;
  int64_t projection_offset = 0;
  int64_t bias_offset = 0;
  int64_t centroids_offset = 0;
  int64_t raw_labels_offset = 0;
  int64_t trainer_offset = 0;
  int64_t file_size = 0;
};

// Bytes of the serialized header: magic + 6 int32 + double + uint64 +
// 6 int64. Sections start at the next 64-byte boundary.
constexpr int64_t kHeaderBytes = 4 + 6 * 4 + 8 + 8 + 6 * 8;

int64_t AlignUp(int64_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

void WriteBytes(std::ofstream* out, const void* data, size_t bytes) {
  out->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
}

void PadTo(std::ofstream* out, int64_t offset) {
  static const char zeros[kSectionAlign] = {};
  const int64_t position = static_cast<int64_t>(out->tellp());
  SRDA_CHECK_LE(position, offset) << "binary section layout overflow";
  WriteBytes(out, zeros, static_cast<size_t>(offset - position));
}

// Copies `bytes` out of the file image with a bounds check; the one copy a
// binary load performs per section (no per-element conversion).
void CopySection(const unsigned char* data, int64_t size,
                 const std::string& path, int64_t offset, void* dst,
                 int64_t bytes) {
  SRDA_CHECK(offset >= kHeaderBytes && bytes >= 0 && offset + bytes <= size)
      << path << ": model section [" << offset << ", " << offset + bytes
      << ") escapes the file (" << size << " bytes) — truncated or corrupt";
  std::memcpy(dst, data + offset, static_cast<size_t>(bytes));
}

SrdaModel ParseBinary(const unsigned char* data, int64_t size,
                      const std::string& path) {
  SRDA_CHECK_GE(size, kHeaderBytes) << path << ": truncated model file";
  SRDA_CHECK(std::memcmp(data, kBinaryMagic, sizeof(kBinaryMagic)) == 0)
      << path << ": not an srda binary model (bad magic)";
  BinaryHeader h;
  const unsigned char* p = data + sizeof(kBinaryMagic);
  const auto read = [&p](void* dst, size_t bytes) {
    std::memcpy(dst, p, bytes);
    p += bytes;
  };
  read(&h.version, 4);
  read(&h.input_dim, 4);
  read(&h.output_dim, 4);
  read(&h.num_classes, 4);
  read(&h.head_kind, 4);
  read(&h.trainer_len, 4);
  read(&h.alpha, 8);
  read(&h.seed, 8);
  read(&h.projection_offset, 8);
  read(&h.bias_offset, 8);
  read(&h.centroids_offset, 8);
  read(&h.raw_labels_offset, 8);
  read(&h.trainer_offset, 8);
  read(&h.file_size, 8);

  SRDA_CHECK_EQ(h.version, kBinaryVersion)
      << path << ": unsupported model version " << h.version << " (expected "
      << kBinaryVersion << ")";
  SRDA_CHECK_EQ(h.file_size, size)
      << path << ": file is " << size << " bytes but the header recorded "
      << h.file_size << " — truncated or corrupt";
  SRDA_CHECK(h.input_dim > 0 && h.output_dim > 0 && h.num_classes > 1)
      << path << ": invalid model dimensions " << h.input_dim << " x "
      << h.output_dim << ", " << h.num_classes << " classes";
  SRDA_CHECK(h.head_kind == static_cast<int32_t>(HeadKind::kCentroid))
      << path << ": unknown classifier head " << h.head_kind;
  SRDA_CHECK(h.trainer_len >= 0 && h.trainer_len <= kMaxTrainerLen)
      << path << ": implausible trainer-name length " << h.trainer_len;

  SrdaModel m;
  Matrix projection(h.input_dim, h.output_dim);
  CopySection(data, size, path, h.projection_offset, projection.data(),
              static_cast<int64_t>(h.input_dim) * h.output_dim * 8);
  Vector bias(h.output_dim);
  CopySection(data, size, path, h.bias_offset, bias.data(),
              static_cast<int64_t>(h.output_dim) * 8);
  m.centroids = Matrix(h.num_classes, h.output_dim);
  CopySection(data, size, path, h.centroids_offset, m.centroids.data(),
              static_cast<int64_t>(h.num_classes) * h.output_dim * 8);
  std::vector<int32_t> raw(static_cast<size_t>(h.num_classes));
  CopySection(data, size, path, h.raw_labels_offset, raw.data(),
              static_cast<int64_t>(h.num_classes) * 4);
  m.raw_labels.assign(raw.begin(), raw.end());
  m.provenance.trainer.resize(static_cast<size_t>(h.trainer_len));
  if (h.trainer_len > 0) {
    CopySection(data, size, path, h.trainer_offset,
                m.provenance.trainer.data(), h.trainer_len);
  }
  m.provenance.alpha = h.alpha;
  m.provenance.seed = h.seed;
  m.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  m.Validate();
  return m;
}

// Reads the whole file into memory in one call.
std::vector<unsigned char> SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  SRDA_CHECK(in.good()) << "cannot open " << path << " for reading";
  const std::streamsize size = in.tellg();
  std::vector<unsigned char> buffer(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buffer.data()), size);
  SRDA_CHECK(in.good()) << path << ": read failure";
  return buffer;
}

char SniffFirstByte(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SRDA_CHECK(in.good()) << "cannot open " << path << " for reading";
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, sizeof(magic));
  SRDA_CHECK(in.gcount() > 0) << path << ": empty model file";
  return in.gcount() == 4 && std::memcmp(magic, kBinaryMagic, 4) == 0 ? 'B'
                                                                      : 'T';
}

// The codec `path` holds, by magic. Aborts if the file opens but matches no
// known format.
Codec DetectCodec(const std::string& path) {
  if (SniffFirstByte(path) == 'B') return Codec::kBinary;
  std::ifstream in(path);
  std::string magic;
  SRDA_CHECK(static_cast<bool>(in >> magic) && magic == kTextMagic)
      << path << ": not an srda model file";
  return Codec::kText;
}

}  // namespace

void SaveText(const SrdaModel& m, const std::string& path) {
  m.Validate();
  std::ofstream out(path);
  SRDA_CHECK(out.good()) << "cannot open " << path << " for writing";
  // max_digits10 decimal digits round-trip every double exactly; anything
  // less silently perturbs coefficients on reload.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kTextMagic << ' ' << kTextVersion << '\n';
  out << "trainer " << (m.provenance.trainer.empty() ? "unknown"
                                                     : m.provenance.trainer)
      << '\n';
  out << "alpha " << m.provenance.alpha << '\n';
  out << "seed " << m.provenance.seed << '\n';
  out << "head " << HeadName(m.head) << '\n';
  out << "dims " << m.input_dim() << ' ' << m.output_dim() << ' '
      << m.num_classes() << '\n';
  out << "raw_labels";
  for (int raw : m.raw_labels) out << ' ' << raw;
  out << '\n';
  WriteMatrixRows(&out, m.embedding.projection());
  const Vector& bias = m.embedding.bias();
  for (int j = 0; j < bias.size(); ++j) {
    out << bias[j] << (j + 1 == bias.size() ? '\n' : ' ');
  }
  WriteMatrixRows(&out, m.centroids);
  SRDA_CHECK(out.good()) << "write failure on " << path;
}

SrdaModel LoadText(const std::string& path) {
  std::ifstream in(path);
  SRDA_CHECK(in.good()) << "cannot open " << path << " for reading";
  std::string magic;
  int version = 0;
  SRDA_CHECK(static_cast<bool>(in >> magic))
      << path << ": empty model file";
  SRDA_CHECK(magic == kTextMagic)
      << path << ": not an srda model file (magic '" << magic << "')";
  SRDA_CHECK(static_cast<bool>(in >> version))
      << path << ": truncated model header";
  SRDA_CHECK_EQ(version, kTextVersion)
      << path << ": unsupported model version " << version << " (expected "
      << kTextVersion << ")";

  SrdaModel m;
  m.provenance.trainer = ReadKeyed<std::string>(&in, path, "trainer");
  m.provenance.alpha = ReadKeyed<double>(&in, path, "alpha");
  m.provenance.seed = ReadKeyed<uint64_t>(&in, path, "seed");
  const std::string head = ReadKeyed<std::string>(&in, path, "head");
  SRDA_CHECK(head == "centroid")
      << path << ": unknown classifier head '" << head << "'";
  m.head = HeadKind::kCentroid;

  std::string key;
  int input_dim = 0;
  int output_dim = 0;
  int num_classes = 0;
  SRDA_CHECK(static_cast<bool>(in >> key >> input_dim >> output_dim >>
                               num_classes) &&
             key == "dims")
      << path << ": expected 'dims <input> <output> <classes>'";
  SRDA_CHECK(input_dim > 0 && output_dim > 0 && num_classes > 1)
      << path << ": invalid model dimensions " << input_dim << " x "
      << output_dim << ", " << num_classes << " classes";
  SRDA_CHECK(static_cast<bool>(in >> key) && key == "raw_labels")
      << path << ": expected the raw_labels map";
  m.raw_labels.resize(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK(static_cast<bool>(in >> m.raw_labels[static_cast<size_t>(k)]))
        << path << ": truncated raw_labels";
  }

  Matrix projection(input_dim, output_dim);
  ReadMatrixRows(&in, &projection, path, "projection");
  Vector bias(output_dim);
  for (int j = 0; j < output_dim; ++j) {
    SRDA_CHECK(static_cast<bool>(in >> bias[j]))
        << path << ": truncated bias";
  }
  m.centroids = Matrix(num_classes, output_dim);
  ReadMatrixRows(&in, &m.centroids, path, "centroids");
  m.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  m.Validate();
  return m;
}

void SaveBinary(const SrdaModel& m, const std::string& path) {
  m.Validate();
  BinaryHeader h;
  h.version = kBinaryVersion;
  h.input_dim = m.input_dim();
  h.output_dim = m.output_dim();
  h.num_classes = m.num_classes();
  h.head_kind = static_cast<int32_t>(m.head);
  h.trainer_len = static_cast<int32_t>(m.provenance.trainer.size());
  SRDA_CHECK_LE(h.trainer_len, kMaxTrainerLen) << "trainer name too long";
  h.alpha = m.provenance.alpha;
  h.seed = m.provenance.seed;
  h.projection_offset = AlignUp(kHeaderBytes);
  h.bias_offset = AlignUp(h.projection_offset +
                          static_cast<int64_t>(h.input_dim) * h.output_dim * 8);
  h.centroids_offset =
      AlignUp(h.bias_offset + static_cast<int64_t>(h.output_dim) * 8);
  h.raw_labels_offset =
      AlignUp(h.centroids_offset +
              static_cast<int64_t>(h.num_classes) * h.output_dim * 8);
  h.trainer_offset =
      AlignUp(h.raw_labels_offset + static_cast<int64_t>(h.num_classes) * 4);
  h.file_size = h.trainer_offset + h.trainer_len;

  std::ofstream out(path, std::ios::binary);
  SRDA_CHECK(out.good()) << "cannot open " << path << " for writing";
  WriteBytes(&out, kBinaryMagic, sizeof(kBinaryMagic));
  WriteBytes(&out, &h.version, 4);
  WriteBytes(&out, &h.input_dim, 4);
  WriteBytes(&out, &h.output_dim, 4);
  WriteBytes(&out, &h.num_classes, 4);
  WriteBytes(&out, &h.head_kind, 4);
  WriteBytes(&out, &h.trainer_len, 4);
  WriteBytes(&out, &h.alpha, 8);
  WriteBytes(&out, &h.seed, 8);
  WriteBytes(&out, &h.projection_offset, 8);
  WriteBytes(&out, &h.bias_offset, 8);
  WriteBytes(&out, &h.centroids_offset, 8);
  WriteBytes(&out, &h.raw_labels_offset, 8);
  WriteBytes(&out, &h.trainer_offset, 8);
  WriteBytes(&out, &h.file_size, 8);

  PadTo(&out, h.projection_offset);
  WriteBytes(&out, m.embedding.projection().data(),
             static_cast<size_t>(h.input_dim) * h.output_dim * 8);
  PadTo(&out, h.bias_offset);
  WriteBytes(&out, m.embedding.bias().data(),
             static_cast<size_t>(h.output_dim) * 8);
  PadTo(&out, h.centroids_offset);
  WriteBytes(&out, m.centroids.data(),
             static_cast<size_t>(h.num_classes) * h.output_dim * 8);
  PadTo(&out, h.raw_labels_offset);
  std::vector<int32_t> raw(m.raw_labels.begin(), m.raw_labels.end());
  WriteBytes(&out, raw.data(), raw.size() * 4);
  PadTo(&out, h.trainer_offset);
  WriteBytes(&out, m.provenance.trainer.data(),
             static_cast<size_t>(h.trainer_len));
  SRDA_CHECK(out.good()) << "write failure on " << path;
}

SrdaModel LoadBinary(const std::string& path) {
  const std::vector<unsigned char> buffer = SlurpFile(path);
  return ParseBinary(buffer.data(), static_cast<int64_t>(buffer.size()), path);
}

void Save(const SrdaModel& m, const std::string& path, Codec codec) {
  if (codec == Codec::kBinary) {
    SaveBinary(m, path);
  } else {
    SaveText(m, path);
  }
}

SrdaModel Load(const std::string& path) {
  TraceSpan span("model.load");
  const Codec codec = DetectCodec(path);
  SrdaModel m =
      codec == Codec::kBinary ? LoadBinary(path) : LoadText(path);
  if (span.recording()) {
    const int64_t coeffs =
        static_cast<int64_t>(m.input_dim() + m.num_classes()) *
        m.output_dim();
    span.AddArg("coeffs", static_cast<double>(coeffs));
    span.AddArg("binary", codec == Codec::kBinary ? 1.0 : 0.0);
  }
  return m;
}

}  // namespace model
}  // namespace srda
