"""Toolkit for estimating systolic and diastolic blood pressure from speech.

Pipeline stages: WAV ingestion (audio_io), voiced-region segmentation and
spectral analysis (dsp), acoustic feature extraction (features), cohort and
label handling (dataset), ReliefF feature selection (relieff), feature-to-text
tokenization (textcodec), a from-scratch transformer-encoder regressor with
two heads (model), training and metrics (training), and a batch CLI (cli).
Every file is written and read through one module (artifacts), and every
failure exit code of the CLI has one exception class (errors).
"""

__version__ = "0.1.0"
