"""From-scratch differentiable network stack: reverse-mode autodiff on numpy
arrays (``tensor``), a small U-Net (``unet``), evidential and softmax losses
(``losses``), and the training loop and MC-dropout prediction (``train``)."""
