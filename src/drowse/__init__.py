"""Interpretable CNN-LSTM drowsiness recognition from single-channel EEG.

Subpackages:
    numerics   seeded RNG, softmax, sigmoid, DFT power, paired t-test
    dataio     dataset/session file formats, RT labeling, resampling, synthesis
    network    CNN-LSTM forward pass and hand-derived gradients
    training   Adam, epoch loop, leave-one-subject-out evaluation
    interpret  hidden-state heatmaps (relative and accumulated)
    baselines  band-power/entropy features and classical classifiers
"""

__version__ = "0.1.0"
