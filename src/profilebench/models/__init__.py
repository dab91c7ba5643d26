"""Models: the aggregate baseline, the BiLSTM layers, checkpoints and training."""
