"""Recitation-rule recognition: filter-bank features, an RBF-kernel SVM
trained with SMO, and threshold-gated sliding-window detection. BLAS runs one
thread, pinned here before numpy loads, so outputs do not depend on the core
count; a caller that imports numpy before tajweed must pin the threads itself.

Outputs hold per BLAS kernel: corpora, verdicts, train and evaluate stdout and
gridsearch tables do not depend on it; model files and timelines may differ in
their last bits (worst p_right gap seen: 8.7e-15), a bound tests/test_blas_kernel.py holds."""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
