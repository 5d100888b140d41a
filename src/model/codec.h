// Serialization codecs for the model store (model/model.h).
//
// Two interchangeable on-disk formats carry the same SrdaModel:
//
//  * Text ("srda-model 2"): line-oriented, human-inspectable, the migration
//    format. Doubles are written with max_digits10 significant digits so a
//    save -> load round trip reproduces every coefficient bit for bit
//    (correctly-rounded decimal I/O both ways).
//
//  * Binary ("SRDM" v1): a fixed header holding dimensions, provenance, and
//    the byte offset of every section, followed by 64-byte-aligned sections
//    (projection, bias, centroids, raw labels, trainer name) in native
//    layout. Loading reads the file in one call and memcpy's each section
//    straight into place — zero parse cost, no per-element conversion — so
//    a server picks up a model at memory bandwidth.
//
// Every load is wrapped in a `model.load` trace span (bytes + codec args)
// so serving traces prove which path a model came through. All malformed
// inputs — truncation, bad magic, unsupported versions, section offsets
// that escape the file, dimension mismatches — abort through SRDA_CHECK
// with the file path in the message instead of reading garbage.

#ifndef SRDA_MODEL_CODEC_H_
#define SRDA_MODEL_CODEC_H_

#include <string>

#include "model/model.h"

namespace srda {
namespace model {

enum class Codec {
  kText,    // "srda-model 2"
  kBinary,  // "SRDM" v1, native layout
};

// Writes `m` to `path` in the requested codec. Aborts on I/O failure or an
// invalid model (SrdaModel::Validate).
void Save(const SrdaModel& m, const std::string& path, Codec codec);

// Loads a model, sniffing the codec from the file's magic: "SRDM" selects
// the binary loader, "srda-model" the text loader.
// Anything else aborts with the path.
SrdaModel Load(const std::string& path);

// Codec-explicit entry points (Save/Load are the normal interface).
void SaveText(const SrdaModel& m, const std::string& path);
void SaveBinary(const SrdaModel& m, const std::string& path);
SrdaModel LoadText(const std::string& path);
SrdaModel LoadBinary(const std::string& path);

}  // namespace model
}  // namespace srda

#endif  // SRDA_MODEL_CODEC_H_
