"""Recitation-rule recognition: filter-bank features, an RBF-kernel SVM
trained with SMO, and threshold-gated sliding-window detection."""
