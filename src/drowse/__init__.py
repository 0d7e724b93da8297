"""Interpretable CNN-LSTM drowsiness recognition from single-channel EEG.

Subpackages:
    numerics   seeded RNG, softmax, sigmoid, DFT power, paired t-test
    dataio     dataset/session file formats, RT labeling, resampling, synthesis
    network    CNN-LSTM forward pass and hand-derived gradients
    training   Adam, epoch loop, leave-one-subject-out evaluation
    interpret  hidden-state heatmaps (relative and accumulated)
    baselines  band-power/entropy features and classical classifiers

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are not set already, before any submodule
imports numpy, so every drowse process and every LOSO pool worker (which
inherits the environment) runs one BLAS thread. The network's matmuls are
too small to gain from more: on a 2-core machine two BLAS threads gave the
same wall time for twice the CPU time, and pool workers with two threads
each oversubscribed the cores. Parallelism comes from LOSO worker
processes instead. A value set in the environment still wins, and a
process that imported numpy before drowse keeps the BLAS pool it started.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
