// Deployment image round-trips: what ships in flash must come back
// bit-identical and executable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "arch/accelerator.h"
#include "common/crc32.h"
#include "deploy/image_io.h"

namespace msh {
namespace {

QuantizedNmMatrix random_matrix(i64 k, i64 c, NmConfig cfg, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{k, c}, rng);
  NmMask mask = select_nm_mask(w, cfg, GroupAxis::kRows);
  apply_mask(w, mask);
  return QuantizedNmMatrix::from_packed(NmPackedMatrix::pack(w, cfg));
}

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "/msh_image_" + tag + ".bin";
}

TEST(Crc32, KnownAnswer) {
  // The IEEE 802.3 check value; images and journal frames share this CRC.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(DeploymentImage, RoundTripBitExact) {
  DeploymentImage image;
  image.add("backbone.conv1", random_matrix(512, 16, kSparse1of4, 1));
  image.add("rep.m1", random_matrix(128, 8, kSparse1of8, 2));
  const std::string path = temp_path("roundtrip");
  image.save(path);

  const DeploymentImage loaded = DeploymentImage::load(path);
  ASSERT_EQ(loaded.size(), 2);
  ASSERT_TRUE(loaded.contains("backbone.conv1"));
  const QuantizedNmMatrix& a = image.get("backbone.conv1");
  const QuantizedNmMatrix& b = loaded.get("backbone.conv1");
  EXPECT_EQ(a.config(), b.config());
  EXPECT_EQ(a.dense_rows(), b.dense_rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_FLOAT_EQ(a.scale(), b.scale());
  EXPECT_EQ(a.to_dense_int8(), b.to_dense_int8());
  std::remove(path.c_str());
}

TEST(DeploymentImage, LoadedMatrixExecutesIdentically) {
  DeploymentImage image;
  image.add("layer", random_matrix(256, 12, kSparse1of4, 3));
  const std::string path = temp_path("exec");
  image.save(path);
  const DeploymentImage loaded = DeploymentImage::load(path);

  Rng rng(4);
  std::vector<i8> act(256);
  for (auto& v : act) v = static_cast<i8>(rng.uniform_int(-127, 127));

  HybridCore core;
  const auto y1 =
      core.matvec(core.deploy_mram(image.get("layer")), act);
  const auto y2 =
      core.matvec(core.deploy_mram(loaded.get("layer")), act);
  EXPECT_EQ(y1, y2);
  std::remove(path.c_str());
}

TEST(DeploymentImage, AddReplaces) {
  DeploymentImage image;
  image.add("x", random_matrix(64, 4, kSparse1of4, 5));
  image.add("x", random_matrix(128, 4, kSparse1of4, 6));
  EXPECT_EQ(image.size(), 1);
  EXPECT_EQ(image.get("x").dense_rows(), 128);
}

TEST(DeploymentImage, MissingEntryThrows) {
  DeploymentImage image;
  EXPECT_THROW(image.get("nope"), ContractError);
}

TEST(DeploymentImage, PayloadBytes) {
  DeploymentImage image;
  image.add("a", random_matrix(64, 4, kSparse1of4, 7));
  // packed 16 x 4 cols x 3 planes.
  EXPECT_EQ(image.payload_bytes(), 16 * 4 * 3);
}

TEST(DeploymentImage, BadMagicRejected) {
  const std::string path = temp_path("badmagic");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOPE and some garbage";
  }
  EXPECT_THROW(DeploymentImage::load(path), SimulationError);
  std::remove(path.c_str());
}

TEST(DeploymentImage, TruncationRejected) {
  DeploymentImage image;
  image.add("layer", random_matrix(256, 8, kSparse1of4, 8));
  const std::string path = temp_path("trunc");
  image.save(path);
  // Truncate the file to half.
  std::ifstream is(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  is.close();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(),
             static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_THROW(DeploymentImage::load(path), SimulationError);
  std::remove(path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

TEST(DeploymentImage, PayloadCorruptionRejectedByCrc) {
  DeploymentImage image;
  image.add("layer", random_matrix(256, 8, kSparse1of4, 9));
  const std::string path = temp_path("crc");
  image.save(path);
  // Flip one payload byte in the middle: structurally still a perfectly
  // parseable file, so only the integrity footer can catch it.
  std::string contents = slurp(path);
  contents[contents.size() / 2] ^= 0x01;
  spit(path, contents);
  try {
    DeploymentImage::load(path);
    FAIL() << "corrupt image deployed";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(DeploymentImage, FooterCorruptionRejectedByCrc) {
  DeploymentImage image;
  image.add("layer", random_matrix(64, 4, kSparse1of4, 10));
  const std::string path = temp_path("crcfooter");
  image.save(path);
  std::string contents = slurp(path);
  contents.back() ^= 0xFF;  // corrupt the stored CRC itself
  spit(path, contents);
  EXPECT_THROW(DeploymentImage::load(path), SimulationError);
  std::remove(path.c_str());
}

TEST(DeploymentImage, UnsupportedVersionRejected) {
  // Well-formed empty images in each other version's layout: v1 had no
  // generation field and no CRC footer, v2 no generation field. Only
  // version 3 is read, so none of them deploys.
  for (const u32 version : {0u, 1u, 2u, 4u}) {
    std::string blob = "MSHI";
    auto put = [&blob](const auto& value) {
      blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    put(version);
    if (version >= 3) put(u64{0});  // generation
    put(u64{0});                    // entry count
    if (version >= 2) put(crc32(blob.data(), blob.size()));
    try {
      DeploymentImage::deserialize(blob, "crafted");
      FAIL() << "version " << version << " accepted";
    } catch (const SimulationError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << "version " << version << ": " << e.what();
    }
  }
}

TEST(DeploymentImage, Version3CarriesGeneration) {
  DeploymentImage image;
  image.add("layer", random_matrix(64, 4, kSparse1of4, 18));
  image.set_generation(41);
  const std::string path = temp_path("v3gen");
  image.save(path);
  const DeploymentImage loaded = DeploymentImage::load(path);
  EXPECT_EQ(loaded.generation(), 41u);
  std::remove(path.c_str());
}

TEST(DeploymentImage, TrailingGarbageRejectedDistinctly) {
  DeploymentImage image;
  image.add("layer", random_matrix(64, 4, kSparse1of4, 19));
  std::string blob = image.serialize();
  blob.append("XY");  // two stray bytes past the last entry
  try {
    DeploymentImage::deserialize(blob, "garbage test");
    FAIL() << "trailing garbage accepted";
  } catch (const SimulationError& e) {
    // Must be attributed as trailing garbage, not aliased to a CRC
    // failure.
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos)
        << e.what();
  }
}

TEST(DeploymentImage, ShortReadRejectedDistinctly) {
  DeploymentImage image;
  image.add("layer", random_matrix(64, 4, kSparse1of4, 20));
  const std::string blob = image.serialize();
  // Chop mid-payload: far past the header, well short of the footer.
  const std::string torn = blob.substr(0, blob.size() / 2);
  try {
    DeploymentImage::deserialize(torn, "short-read test");
    FAIL() << "short read accepted";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << "short read must not alias as a CRC failure: " << e.what();
  }
}

TEST(DeploymentImage, WrappedSlotCountRejected) {
  // One 4:4 entry with dense_rows = 2^33 and cols = 2^31: 2^64 slots,
  // which wraps to 0 in i64. No payload and a valid CRC must still be
  // rejected, not parsed as an empty matrix.
  std::string blob = "MSHI";
  auto put = [&blob](const auto& value) {
    blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(u32{3});  // version
  put(u64{0});  // generation
  put(u64{1});  // entry count
  put(u64{1});  // name length
  blob += "w";
  put(i32{4});
  put(i32{4});
  put(i64{1} << 33);  // dense_rows
  put(i64{1} << 31);  // cols
  put(1.0f);          // scale
  put(crc32(blob.data(), blob.size()));
  EXPECT_THROW(DeploymentImage::deserialize(blob, "crafted"), SimulationError);
}

TEST(DeploymentImage, SaveIsAtomicAndReplacesExisting) {
  DeploymentImage first;
  first.add("a", random_matrix(64, 4, kSparse1of4, 12));
  const std::string path = temp_path("atomic");
  first.save(path);
  // The temp staging file was renamed away, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  DeploymentImage second;
  second.add("b", random_matrix(128, 4, kSparse1of4, 13));
  second.save(path);  // overwrite via rename: readers never see a mix
  const DeploymentImage loaded = DeploymentImage::load(path);
  EXPECT_EQ(loaded.size(), 1);
  EXPECT_TRUE(loaded.contains("b"));
  EXPECT_FALSE(loaded.contains("a"));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(DeploymentImage, MissingFileRejected) {
  EXPECT_THROW(DeploymentImage::load("/nonexistent/msh.bin"),
               SimulationError);
}

TEST(QuantizedNmRaw, FromRawValidates) {
  // Index out of group range must be rejected.
  EXPECT_THROW(QuantizedNmMatrix::from_raw(kSparse1of4, 4, 1, 1.0f, {1},
                                           {7}, {1}),
               ContractError);
  // Size mismatch.
  EXPECT_THROW(QuantizedNmMatrix::from_raw(kSparse1of4, 8, 1, 1.0f, {1},
                                           {0}, {1}),
               ContractError);
  // A slot count that wraps to 0 (2^33 packed rows x 2^31 columns).
  EXPECT_THROW(QuantizedNmMatrix::from_raw(kSparse1of4, i64{1} << 35,
                                           i64{1} << 31, 1.0f, {}, {}, {}),
               ContractError);
}

}  // namespace
}  // namespace msh
