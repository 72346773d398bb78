(define-package tool
  (package
    (name "tool")
    (version "1")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/name") "tool")))))

(define install
  #~(let ((bin #$tool))
      (copy-file (string-append bin "/name") (string-append #$output "/tool"))))

#~(let ((dir #$output))
    (mkdir dir)
    #$install)
