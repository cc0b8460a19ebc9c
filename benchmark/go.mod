module blobseer/benchmark

go 1.24

require blobseer v0.0.0

replace blobseer => ../
