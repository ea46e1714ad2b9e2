// Negative and positive checks of the oracle gate: a reply must equal the
// expected answer at an epoch inside its window, and a corrupted expected
// hash must trip the gate. Exits nonzero on the first failed check.

#include <cstdio>
#include <vector>

#include "oracle_gate.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using viewjoin::perfbench::EpochOracle;
  using viewjoin::perfbench::Expected;

  // Two queries over three epochs; query 1 changes at every epoch.
  EpochOracle oracle(2);
  oracle.AddEpoch({{10, 0xA0}, {5, 0xB0}});
  oracle.AddEpoch({{10, 0xA0}, {6, 0xB1}});
  oracle.AddEpoch({{10, 0xA0}, {7, 0xB2}});
  Expect(oracle.epochs() == 3, "three epochs recorded");

  Expect(oracle.Accepts(0, 10, 0xA0, 0, 0), "matching reply at epoch 0");
  Expect(oracle.Accepts(1, 6, 0xB1, 0, 2), "epoch 1 inside window 0..2");
  Expect(!oracle.Accepts(1, 6, 0xB1, 2, 2), "epoch 1 outside window 2..2");
  Expect(!oracle.Accepts(1, 5, 0xB0, 1, 2), "stale epoch 0 after an ack");
  Expect(!oracle.Accepts(1, 6, 0xB0, 0, 2), "count and hash from two epochs");
  Expect(!oracle.Accepts(0, 11, 0xA0, 0, 2), "wrong match count");
  Expect(!oracle.Accepts(2, 10, 0xA0, 0, 2), "unknown query index");
  Expect(oracle.Accepts(1, 7, 0xB2, 2, 9), "window clamped to known epochs");

  // Corrupt the expected hash of a reply the gate accepted: the same reply
  // must now be refused.
  Expect(oracle.Accepts(0, 10, 0xA0, 1, 1), "accepted before corruption");
  oracle.MutableAt(1, 0).result_hash ^= 1;
  Expect(!oracle.Accepts(0, 10, 0xA0, 1, 1), "corrupted hash trips the gate");
  Expect(oracle.Accepts(0, 10, 0xA0, 0, 1), "other epochs still match");

  if (failures == 0) std::printf("gate_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
