#ifndef LSHAP_LEARNSHAPLEY_MODEL_IO_H_
#define LSHAP_LEARNSHAPLEY_MODEL_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "learnshapley/ranker.h"

namespace lshap {

// Persists a trained LearnShapley ranker — encoder configuration,
// vocabulary, every float weight tensor and the inference mode — to a
// line-oriented text file whose last line checksums the rest, so a model
// trained once can be deployed without retraining (the paper's "offline
// training / online inference" split). DESIGN.md §12.5 has the layout.
Status SaveRanker(LearnShapleyRanker& ranker, const std::string& path);

// Loads a ranker saved by SaveRanker; a quantized ranker re-derives its
// int8 model from the float weights. Predictions are bit-identical to the
// saved model's in either mode. A corrupt file returns kInvalidArgument,
// never a crash.
Result<std::unique_ptr<LearnShapleyRanker>> LoadRanker(
    const std::string& path);

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_MODEL_IO_H_
